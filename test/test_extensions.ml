(* Tests for the extension features beyond the paper's prototype:
   frequency-based eviction (§5.1.4's suggestion), memory-ballooning
   upcalls (§5.2.1's deferred mechanism), the restart monitor (§3), and
   multi-enclave EPC behaviour. *)

open Sgx

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let page = Types.page_bytes

(* --- Frequency-based eviction ------------------------------------------ *)

let test_frequency_eviction_keeps_hot_pages () =
  let build eviction =
    let sys = Helpers.autarky_system ~budget:32 () in
    let rt = Harness.System.runtime_exn sys in
    let rl = Autarky.Policy_rate_limit.create ~runtime:rt ~evict_batch:8 ~eviction () in
    Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
    let _burn = Harness.System.reserve sys ~pages:128 in
    let b = Harness.System.reserve sys ~pages:64 in
    Harness.System.manage sys (List.init 64 (fun i -> b + i));
    (sys, rt, b)
  in
  (* Access pattern: page b is touched between every cold sweep, so it
     refaults constantly under FIFO; frequency eviction learns to keep
     the pages that fault most... and evicts low-count ones. *)
  let run eviction =
    let sys, rt, b = build eviction in
    let vm = Harness.System.vm sys () in
    let rng = Metrics.Rng.create ~seed:31L in
    for _ = 1 to 2_000 do
      vm.Workloads.Vm.read ((b + Metrics.Rng.int rng 8) * page);  (* hot octet *)
      vm.Workloads.Vm.read ((b + 8 + Metrics.Rng.int rng 56) * page) (* cold tail *)
    done;
    ignore rt;
    Metrics.Counters.get (Harness.System.counters sys) "cpu.page_fault"
  in
  let fifo_faults = run `Fifo in
  let freq_faults = run `Fault_frequency in
  checkb "frequency eviction reduces faults on skewed access" true
    (freq_faults < fifo_faults)

let test_fault_counts_tracked () =
  let sys = Helpers.autarky_system ~budget:32 () in
  let rt = Harness.System.runtime_exn sys in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  let _burn = Harness.System.reserve sys ~pages:128 in
  let b = Harness.System.reserve sys ~pages:2 in
  Harness.System.manage sys [ b; b + 1 ];
  let vm = Harness.System.vm sys () in
  vm.Workloads.Vm.read (b * page);
  checki "one fault recorded" 1 (Autarky.Policy_rate_limit.fault_count rl b);
  checki "other page untouched" 0 (Autarky.Policy_rate_limit.fault_count rl (b + 1))

(* --- Ballooning --------------------------------------------------------- *)

let balloon_system () =
  let sys = Helpers.autarky_system ~budget:64 () in
  let rt = Harness.System.runtime_exn sys in
  let _burn = Harness.System.reserve sys ~pages:128 in
  let b = Harness.System.reserve sys ~pages:48 in
  let pages = List.init 48 (fun i -> b + i) in
  Harness.System.manage sys pages;
  (sys, rt, pages)

let test_balloon_rate_limit_complies () =
  let sys, rt, pages = balloon_system () in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  Autarky.Pager.fetch (Autarky.Runtime.pager rt) pages;
  checki "48 resident" 48 (Autarky.Pager.resident_count (Autarky.Runtime.pager rt));
  let released =
    Sim_os.Kernel.request_balloon (Harness.System.os sys) (Harness.System.proc sys)
      ~pages:20
  in
  checki "released what was asked" 20 released;
  checki "resident shrank" 28 (Autarky.Pager.resident_count (Autarky.Runtime.pager rt))

let test_balloon_pinned_refuses () =
  let sys, rt, pages = balloon_system () in
  (* Default pinned policy: everything is sensitive. *)
  Autarky.Pager.fetch (Autarky.Runtime.pager rt) pages;
  let released =
    Sim_os.Kernel.request_balloon (Harness.System.os sys) (Harness.System.proc sys)
      ~pages:20
  in
  checki "refused" 0 released;
  checki "nothing evicted" 48 (Autarky.Pager.resident_count (Autarky.Runtime.pager rt))

let test_balloon_clusters_whole_clusters () =
  let sys, rt, pages = balloon_system () in
  let clusters = Autarky.Clusters.create () in
  let arr = Array.of_list pages in
  for c = 0 to 5 do
    let id = Autarky.Clusters.new_cluster clusters () in
    for i = 0 to 7 do
      Autarky.Clusters.ay_add_page clusters ~cluster:id arr.((c * 8) + i)
    done
  done;
  let pc = Autarky.Policy_clusters.create ~runtime:rt ~clusters in
  Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
  Autarky.Pager.fetch (Autarky.Runtime.pager rt) pages;
  let released =
    Sim_os.Kernel.request_balloon (Harness.System.os sys) (Harness.System.proc sys)
      ~pages:10
  in
  (* Whole clusters only: 10 requested rounds up to 2 clusters = 16. *)
  checki "rounded to cluster granularity" 16 released;
  let pager = Autarky.Runtime.pager rt in
  checkb "invariant preserved" true
    (Autarky.Clusters.invariant_holds clusters
       ~resident:(Autarky.Pager.resident pager))

let test_balloon_after_release_refetch_works () =
  let sys, rt, pages = balloon_system () in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  Autarky.Pager.fetch (Autarky.Runtime.pager rt) pages;
  ignore
    (Sim_os.Kernel.request_balloon (Harness.System.os sys)
       (Harness.System.proc sys) ~pages:20);
  (* Deflated pages fault back in on demand — no termination. *)
  let vm = Harness.System.vm sys () in
  List.iter (fun p -> vm.Workloads.Vm.read (p * page)) pages;
  checki "all back" 48 (Autarky.Pager.resident_count (Autarky.Runtime.pager rt))

(* 100 heap pages in 10-page clusters under the clusters policy, budget
   64, with the first four clusters chained through shared pages into
   one 40-page fetch set.  Every page has been touched once. *)
let linked_component_system () =
  let sys = Helpers.autarky_system ~budget:64 () in
  let rt = Harness.System.runtime_exn sys in
  let heap = Harness.System.allocator sys ~pages:100 ~cluster_pages:10 in
  let pages = List.init 100 (fun _ -> Autarky.Allocator.alloc_page heap) in
  let clusters = Autarky.Allocator.clusters heap in
  for c = 0 to 2 do
    let next = List.nth pages ((c + 1) * 10) in
    List.iter
      (fun id -> Autarky.Clusters.ay_add_page clusters ~cluster:id next)
      (Autarky.Clusters.ay_get_cluster_ids clusters (List.nth pages (c * 10)))
  done;
  checki "one 40-page fetch set" 40
    (Array.length (Autarky.Clusters.fetch_set clusters (List.hd pages)));
  checki "largest fetch set" 40 (Autarky.Clusters.largest_fetch_set clusters);
  Harness.System.manage sys pages;
  let pc = Autarky.Policy_clusters.create ~runtime:rt ~clusters in
  Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
  let vm = Harness.System.vm sys () in
  let touch = List.iter (fun p -> vm.Workloads.Vm.read (p * page)) in
  touch pages;
  (sys, Autarky.Runtime.pager rt, List.filteri (fun i _ -> i < 40) pages, touch)

let test_balloon_storm_keeps_largest_fetch_set () =
  (* Two 100-page balloon upcalls drive the degrade shrink toward the
     32-page floor; it must stop at the 40-page fetch set, so the next
     access to the linked component is served (or ends in a modeled
     termination) instead of raising [Sgx_error] out of the handler. *)
  let sys, pager, linked, touch = linked_component_system () in
  for _ = 1 to 2 do
    ignore
      (Sim_os.Kernel.request_balloon (Harness.System.os sys)
         (Harness.System.proc sys) ~pages:100)
  done;
  checki "budget stops at the largest fetch set" 40 (Autarky.Pager.budget pager);
  match touch linked with
  | () ->
    checkb "linked component resident" true
      (List.for_all (Autarky.Pager.resident pager) linked)
  | exception Sgx.Types.Enclave_terminated _ -> ()

let test_fetch_set_over_budget_terminates () =
  (* A fetch set that cannot fit the budget is a modeled termination. *)
  let _sys, pager, linked, touch = linked_component_system () in
  Autarky.Pager.evict pager linked;
  Autarky.Pager.set_budget pager 30;
  match touch linked with
  | () -> Alcotest.fail "a 40-page fetch set was served under a 30-page budget"
  | exception Sgx.Types.Enclave_terminated _ -> ()

(* --- Multi-enclave ------------------------------------------------------- *)

let two_enclaves () =
  let m = Helpers.machine ~epc_frames:128 () in
  let os = Sim_os.Kernel.create m in
  let mk limit =
    let proc = Sim_os.Kernel.create_proc os ~size_pages:64 ~self_paging:false ~epc_limit:limit in
    for i = 0 to 63 do
      Sim_os.Kernel.add_initial_page os proc
        ~vpage:((Sim_os.Kernel.enclave proc).base_vpage + i)
        ~data:(Page_data.create ()) ~perms:Types.perms_rwx
    done;
    Sim_os.Kernel.finalize os proc;
    proc
  in
  (m, os, mk 48, mk 48)

let test_static_partitioning_isolation () =
  let m, os, p1, p2 = two_enclaves () in
  let cpu1 =
    Cpu.create ~machine:m ~page_table:(Sim_os.Kernel.page_table p1)
      ~enclave:(Sim_os.Kernel.enclave p1) ~os:(Sim_os.Kernel.os_callbacks os) ()
  in
  let cpu2 =
    Cpu.create ~machine:m ~page_table:(Sim_os.Kernel.page_table p2)
      ~enclave:(Sim_os.Kernel.enclave p2) ~os:(Sim_os.Kernel.os_callbacks os) ()
  in
  (* Both enclaves page within their own partitions. *)
  for i = 0 to 63 do
    Cpu.read cpu1 (Types.vaddr_of_vpage ((Sim_os.Kernel.enclave p1).base_vpage + i));
    Cpu.read cpu2 (Types.vaddr_of_vpage ((Sim_os.Kernel.enclave p2).base_vpage + i))
  done;
  checkb "p1 within limit" true (Sim_os.Kernel.resident_pages p1 <= 48);
  checkb "p2 within limit" true (Sim_os.Kernel.resident_pages p2 <= 48);
  (* Terminating p1 does not disturb p2. *)
  (try Enclave.terminate (Sim_os.Kernel.enclave p1) ~reason:"attacked"
   with Types.Enclave_terminated _ -> ());
  Cpu.read cpu2 (Types.vaddr_of_vpage (Sim_os.Kernel.enclave p2).base_vpage);
  checkb "p2 unaffected" true true

let test_reclaim_global () =
  let m, os, p1, p2 = two_enclaves () in
  ignore m;
  (* p1 fills its partition; reclaiming for p2 evicts p1's OS pages. *)
  let cpu1 =
    Cpu.create ~machine:m ~page_table:(Sim_os.Kernel.page_table p1)
      ~enclave:(Sim_os.Kernel.enclave p1) ~os:(Sim_os.Kernel.os_callbacks os) ()
  in
  for i = 0 to 63 do
    Cpu.read cpu1 (Types.vaddr_of_vpage ((Sim_os.Kernel.enclave p1).base_vpage + i))
  done;
  let free_before = Epc.free_frames Machine.(m.epc) in
  (match Sim_os.Kernel.reclaim_global os ~needed:(free_before + 8) ~requester:p2 with
  | Ok () -> ()
  | Error `Epc_exhausted -> Alcotest.fail "reclaim failed");
  checkb "frames freed" true (Epc.free_frames m.epc >= free_before + 8)

(* --- Restart monitor ------------------------------------------------------ *)

let monitor () =
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  (clock, Autarky.Restart_monitor.create ~clock ~window_cycles:1_000 ~max_restarts:3 ())

let test_restart_monitor_allows_normal_lifecycle () =
  let _clock, mon = monitor () in
  checkb "first start allowed" true
    (Autarky.Restart_monitor.record_start mon ~identity:"app" = Autarky.Restart_monitor.Allow);
  checki "no restarts yet" 0 (Autarky.Restart_monitor.restarts_in_window mon ~identity:"app")

let test_restart_monitor_flags_probe_storm () =
  let _clock, mon = monitor () in
  let id = "victim" in
  let rec probe n last =
    if n = 0 then last
    else begin
      let v = Autarky.Restart_monitor.record_start mon ~identity:id in
      Autarky.Restart_monitor.record_termination mon ~identity:id
        ~reason:"controlled-channel attack";
      probe (n - 1) v
    end
  in
  let verdict = probe 6 Autarky.Restart_monitor.Allow in
  checkb "storm refused" true (verdict = Autarky.Restart_monitor.Refuse);
  checkb "identity cut off" true (Autarky.Restart_monitor.refused mon ~identity:id);
  checkb "leak bounded" true
    (Autarky.Restart_monitor.leaked_bits_bound mon ~identity:id <= 6.0);
  checkb "reasons recorded" true
    (List.length (Autarky.Restart_monitor.last_reasons mon ~identity:id) = 6)

let test_restart_monitor_window_slides () =
  let clock, mon = monitor () in
  let id = "slow" in
  for _ = 1 to 10 do
    (* Restarts spread far apart never trip the detector. *)
    checkb "slow restarts allowed" true
      (Autarky.Restart_monitor.record_start mon ~identity:id
      = Autarky.Restart_monitor.Allow);
    Metrics.Clock.charge clock 5_000
  done;
  checkb "never refused" false (Autarky.Restart_monitor.refused mon ~identity:id)

let test_restart_monitor_identities_independent () =
  let _clock, mon = monitor () in
  for _ = 1 to 6 do
    ignore (Autarky.Restart_monitor.record_start mon ~identity:"bad")
  done;
  checkb "bad refused" true (Autarky.Restart_monitor.refused mon ~identity:"bad");
  checkb "good unaffected" true
    (Autarky.Restart_monitor.record_start mon ~identity:"good"
    = Autarky.Restart_monitor.Allow)

let test_restart_monitor_window_edge () =
  (* A start exactly [window_cycles] old is still inside the window;
     it ages out one cycle later. *)
  let clock, mon = monitor () in
  let id = "edge" in
  for _ = 1 to 4 do
    ignore (Autarky.Restart_monitor.record_start mon ~identity:id)
  done;
  Metrics.Clock.charge clock 1_000;
  checkb "start at window edge still counted" true
    (Autarky.Restart_monitor.record_start mon ~identity:id
    = Autarky.Restart_monitor.Refuse);
  let clock2, mon2 = monitor () in
  for _ = 1 to 4 do
    ignore (Autarky.Restart_monitor.record_start mon2 ~identity:id)
  done;
  Metrics.Clock.charge clock2 1_001;
  checkb "start one cycle past the window aged out" true
    (Autarky.Restart_monitor.record_start mon2 ~identity:id
    = Autarky.Restart_monitor.Allow)

let test_restart_monitor_rejects_degenerate_windows () =
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "zero-width window rejected" true (raises (fun () ->
      Autarky.Restart_monitor.create ~clock ~window_cycles:0 ()));
  checkb "negative window rejected" true (raises (fun () ->
      Autarky.Restart_monitor.create ~clock ~window_cycles:(-5) ()));
  checkb "zero max_restarts rejected" true (raises (fun () ->
      Autarky.Restart_monitor.create ~clock ~window_cycles:1_000
        ~max_restarts:0 ()))

let test_restart_monitor_reasons_capped () =
  let _clock, mon = monitor () in
  let id = "chatty" in
  for i = 1 to Autarky.Restart_monitor.max_reasons + 44 do
    Autarky.Restart_monitor.record_termination mon ~identity:id
      ~reason:(Printf.sprintf "reason-%d" i)
  done;
  let reasons = Autarky.Restart_monitor.last_reasons mon ~identity:id in
  checki "ledger capped" Autarky.Restart_monitor.max_reasons
    (List.length reasons);
  (* Newest first; the counter keeps the true total past the cap. *)
  checkb "newest reason retained" true
    (List.hd reasons
    = Printf.sprintf "reason-%d" (Autarky.Restart_monitor.max_reasons + 44));
  checki "termination counter uncapped"
    (Autarky.Restart_monitor.max_reasons + 44)
    (Autarky.Restart_monitor.total_terminations mon ~identity:id)

let suite =
  [
    ("frequency eviction keeps hot pages", `Quick,
     test_frequency_eviction_keeps_hot_pages);
    ("fault counts tracked", `Quick, test_fault_counts_tracked);
    ("balloon: rate-limit complies", `Quick, test_balloon_rate_limit_complies);
    ("balloon: pinned refuses", `Quick, test_balloon_pinned_refuses);
    ("balloon: clusters whole clusters", `Quick, test_balloon_clusters_whole_clusters);
    ("balloon: refetch after release", `Quick, test_balloon_after_release_refetch_works);
    ("balloon: storm keeps the largest fetch set", `Quick,
     test_balloon_storm_keeps_largest_fetch_set);
    ("clusters: fetch set over budget terminates", `Quick,
     test_fetch_set_over_budget_terminates);
    ("multi-enclave static partitioning", `Quick, test_static_partitioning_isolation);
    ("multi-enclave global reclaim", `Quick, test_reclaim_global);
    ("restart monitor: normal lifecycle", `Quick,
     test_restart_monitor_allows_normal_lifecycle);
    ("restart monitor: probe storm refused", `Quick,
     test_restart_monitor_flags_probe_storm);
    ("restart monitor: window slides", `Quick, test_restart_monitor_window_slides);
    ("restart monitor: identities independent", `Quick,
     test_restart_monitor_identities_independent);
    ("restart monitor: window edge inclusive", `Quick,
     test_restart_monitor_window_edge);
    ("restart monitor: degenerate windows rejected", `Quick,
     test_restart_monitor_rejects_degenerate_windows);
    ("restart monitor: reason ledger capped", `Quick,
     test_restart_monitor_reasons_capped);
  ]
