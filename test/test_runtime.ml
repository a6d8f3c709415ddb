(* Tests for the Autarky runtime: the pager (both paging mechanisms,
   budget, FIFO), fault classification in the exception handler, attack
   detection/termination, and the three policies. *)

open Sgx

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let base sys = (Harness.System.enclave sys).Enclave.base_vpage
let vp sys i = base sys + i
let va sys i = Types.vaddr_of_vpage (vp sys i)

let sys_small ?mech () =
  match mech with
  | Some m ->
    Harness.System.create ~epc_frames:256 ~epc_limit:128 ~enclave_pages:512
      ~self_paging:true ~budget:32 ~mech:m ()
  | None ->
    Harness.System.create ~epc_frames:256 ~epc_limit:128 ~enclave_pages:512
      ~self_paging:true ~budget:32 ()

(* A region of pages beyond the initially-resident prefix. *)
let cold_region sys n =
  let _burn = Harness.System.reserve sys ~pages:128 in
  let b = Harness.System.reserve sys ~pages:n in
  List.init n (fun i -> b + i)

(* --- Pager ------------------------------------------------------------ *)

let test_pager_fetch_evict_sgx1 () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  let pages = cold_region sys 8 in
  Harness.System.manage sys pages;
  checkb "initially non-resident" true
    (List.for_all (fun p -> not (Autarky.Pager.resident pager p)) pages);
  Autarky.Pager.fetch pager pages;
  checkb "fetched" true (List.for_all (Autarky.Pager.resident pager) pages);
  checki "count" 8 (Autarky.Pager.resident_count pager);
  Autarky.Pager.evict pager pages;
  checkb "evicted" true
    (List.for_all (fun p -> not (Autarky.Pager.resident pager p)) pages);
  checki "count 0" 0 (Autarky.Pager.resident_count pager)

let test_pager_fetch_evict_sgx2 () =
  let sys = sys_small ~mech:`Sgx2 () in
  let rt = Harness.System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  let pages = cold_region sys 4 in
  Harness.System.manage sys pages;
  (* SGXv2 first touch: pages EAUGed and accepted zero-filled. *)
  Autarky.Pager.fetch pager pages;
  checkb "fetched via EAUG" true (List.for_all (Autarky.Pager.resident pager) pages);
  (* Stamp one page, evict, refetch, verify the seal preserved it. *)
  let m = Harness.System.machine sys in
  let e = Harness.System.enclave sys in
  (match Instructions.page_data m e ~vpage:(List.hd pages) with
  | Some d -> Page_data.fill_int d 31337
  | None -> Alcotest.fail "page missing");
  Autarky.Pager.evict pager pages;
  checkb "evicted (removed)" true
    (List.for_all (fun p -> not (Autarky.Pager.resident pager p)) pages);
  Autarky.Pager.fetch pager pages;
  match Instructions.page_data m e ~vpage:(List.hd pages) with
  | Some d -> checki "content preserved through runtime seal" 31337 (Page_data.read_int d)
  | None -> Alcotest.fail "page missing after refetch"

let test_pager_sgx2_replay_detected () =
  let sys = sys_small ~mech:`Sgx2 () in
  let rt = Harness.System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  let pages = cold_region sys 1 in
  Harness.System.manage sys pages;
  let p = List.hd pages in
  Autarky.Pager.fetch pager pages;
  Autarky.Pager.evict pager pages;
  (* The OS squirrels away the sealed blob... *)
  let swap = Sim_os.Kernel.swap (Harness.System.os sys) (Harness.System.proc sys) in
  let stale, pcmd = Option.get (Sim_os.Swap_store.peek swap p) in
  Autarky.Pager.fetch pager pages;
  Autarky.Pager.evict pager pages;
  (* ...and replays the stale version. *)
  Sim_os.Swap_store.replace_raw swap p stale ~pcmd;
  checkb "replay terminates the enclave" true
    (try Autarky.Pager.fetch pager pages; false
     with Types.Enclave_terminated _ -> true)

let test_pager_budget_enforced () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  let pages = cold_region sys 40 in
  Harness.System.manage sys pages;
  checkb "over-budget fetch rejected" true
    (try Autarky.Pager.fetch pager pages; false with Types.Sgx_error _ -> true)

let test_pager_make_room_fifo () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  let pages = cold_region sys 40 in
  Harness.System.manage sys pages;
  let first32 = List.filteri (fun i _ -> i < 32) pages in
  Autarky.Pager.fetch pager first32;
  checkb "oldest is first fetched" true
    (Autarky.Pager.oldest_resident pager = Some (List.hd pages));
  Autarky.Pager.make_room pager ~incoming:8 ~victims:(fun () ->
      Autarky.Pager.oldest_residents pager 8);
  checki "room made" 24 (Autarky.Pager.resident_count pager);
  (* The 8 oldest were evicted. *)
  checkb "fifo order" true
    (List.for_all
       (fun p -> not (Autarky.Pager.resident pager p))
       (List.filteri (fun i _ -> i < 8) pages));
  (* The early-exit walk picks what a scan of the candidate list would,
     past dead ring entries at the front and in the middle. *)
  Autarky.Pager.evict pager [ List.nth pages 13 ];
  List.iter
    (fun (n, accept) ->
      checkb "find_oldest_resident = first accepted of oldest_residents" true
        (Autarky.Pager.find_oldest_resident pager n accept
        = List.find_opt accept (Autarky.Pager.oldest_residents pager n)))
    [ (0, fun _ -> true); (1, fun _ -> true); (8, fun p -> p land 3 = 0);
      (8, fun p -> p > List.nth pages 20); (64, fun p -> p > List.nth pages 20);
      (64, fun _ -> false) ]

(* --- Runtime fault classification -------------------------------------- *)

let test_runtime_os_managed_forwarded () =
  let sys = sys_small () in
  let pages = cold_region sys 4 in
  (* Not marked enclave-managed: faults must be forwarded to the OS. *)
  let vm = Harness.System.vm sys () in
  vm.Workloads.Vm.read (Types.vaddr_of_vpage (List.hd pages));
  checki "forwarded" 1
    (Metrics.Counters.get (Harness.System.counters sys) "rt.forwarded_to_os");
  checkb "page resident via OS" true
    (Sim_os.Kernel.resident (Harness.System.os sys) (Harness.System.proc sys)
       (List.hd pages))

let test_runtime_legit_miss_dispatched () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  let pages = cold_region sys 4 in
  Harness.System.manage sys pages;
  let vm = Harness.System.vm sys () in
  vm.Workloads.Vm.read (Types.vaddr_of_vpage (List.hd pages));
  checki "legit miss" 1
    (Metrics.Counters.get (Harness.System.counters sys) "rt.legitimate_miss");
  checkb "policy fetched it" true
    (Autarky.Pager.resident (Autarky.Runtime.pager rt) (List.hd pages))

let test_runtime_detects_unmap_attack () =
  let sys = sys_small () in
  let pages = cold_region sys 2 in
  Harness.System.pin sys pages;
  let vm = Harness.System.vm sys () in
  Sim_os.Kernel.attacker_unmap (Harness.System.os sys) (Harness.System.proc sys)
    (List.hd pages);
  checkb "terminates on resident fault" true
    (try vm.Workloads.Vm.read (Types.vaddr_of_vpage (List.hd pages)); false
     with Types.Enclave_terminated { reason; _ } ->
       checkb "reason mentions attack" true
         (String.length reason > 0
         && Option.is_some
              (String.index_opt reason 'c') (* "controlled-channel attack" *));
       true)

let test_runtime_detects_ad_attack () =
  let sys = sys_small () in
  let pages = cold_region sys 2 in
  Harness.System.pin sys pages;
  let vm = Harness.System.vm sys () in
  let p = List.hd pages in
  (* Touch once so the mapping is warm, then clear A (stealthy attack). *)
  vm.Workloads.Vm.read (Types.vaddr_of_vpage p);
  Sim_os.Kernel.attacker_clear_accessed (Harness.System.os sys)
    (Harness.System.proc sys) p;
  checkb "A-clear detected" true
    (try vm.Workloads.Vm.read (Types.vaddr_of_vpage p); false
     with Types.Enclave_terminated _ -> true)

let test_runtime_detects_wrong_map_attack () =
  let sys = sys_small () in
  let pages = cold_region sys 2 in
  Harness.System.pin sys pages;
  let vm = Harness.System.vm sys () in
  (match pages with
  | [ a; b ] ->
    Sim_os.Kernel.attacker_map_wrong (Harness.System.os sys)
      (Harness.System.proc sys) ~victim:a ~other:b
  | _ -> Alcotest.fail "setup");
  checkb "wrong mapping detected" true
    (try vm.Workloads.Vm.read (Types.vaddr_of_vpage (List.hd pages)); false
     with Types.Enclave_terminated _ -> true)

let test_runtime_detects_spurious_entry () =
  let sys = sys_small () in
  let m = Harness.System.machine sys in
  let e = Harness.System.enclave sys in
  (* A malicious OS EENTERs the handler with no pending exception. *)
  checkb "re-entrancy detected" true
    (try Instructions.enter_handler_and_resume m e; false
     with Types.Enclave_terminated _ -> true)

let test_runtime_detects_forced_eviction () =
  let sys = sys_small () in
  let pages = cold_region sys 2 in
  Harness.System.pin sys pages;
  let vm = Harness.System.vm sys () in
  (* OS breaks the pinning contract with a forced EWB. *)
  Sim_os.Kernel.attacker_evict (Harness.System.os sys) (Harness.System.proc sys)
    (List.hd pages);
  checkb "forced eviction detected" true
    (try vm.Workloads.Vm.read (Types.vaddr_of_vpage (List.hd pages)); false
     with Types.Enclave_terminated _ -> true)

(* --- Policies ---------------------------------------------------------- *)

let test_pinned_policy_terminates_on_miss () =
  let sys = sys_small () in
  let pages = cold_region sys 2 in
  Harness.System.manage sys pages (* managed but NOT fetched *);
  let vm = Harness.System.vm sys () in
  checkb "pinned policy refuses demand paging" true
    (try vm.Workloads.Vm.read (Types.vaddr_of_vpage (List.hd pages)); false
     with Types.Enclave_terminated _ -> true)

let test_rate_limit_allows_within_budget () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit:10 () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  let pages = cold_region sys 30 in
  Harness.System.manage sys pages;
  let vm =
    Harness.System.vm sys
      ~on_progress:(fun () -> Autarky.Policy_rate_limit.progress rl)
      ()
  in
  List.iteri
    (fun i p ->
      vm.Workloads.Vm.read (Types.vaddr_of_vpage p);
      if i mod 5 = 4 then vm.Workloads.Vm.progress ())
    pages;
  checki "all faults served" 30 (Autarky.Policy_rate_limit.total_faults rl)

let test_rate_limit_terminates_on_flood () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit:5 () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  let pages = cold_region sys 30 in
  Harness.System.manage sys pages;
  let vm = Harness.System.vm sys () in
  (* No progress events: the 6th fault exceeds the limit. *)
  checkb "flood terminates" true
    (try
       List.iter (fun p -> vm.Workloads.Vm.read (Types.vaddr_of_vpage p)) pages;
       false
     with Types.Enclave_terminated { reason; _ } ->
       checkb "mentions rate" true
         (String.length reason > 0);
       true)

let test_cluster_policy_fetches_whole_cluster () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let clusters = Autarky.Clusters.create () in
  let pages = cold_region sys 12 in
  Harness.System.manage sys pages;
  (* Three clusters of four pages. *)
  List.iteri
    (fun i p ->
      let c = i / 4 in
      if i mod 4 = 0 then ignore (Autarky.Clusters.new_cluster clusters ());
      Autarky.Clusters.ay_add_page clusters ~cluster:c p)
    pages;
  let pc = Autarky.Policy_clusters.create ~runtime:rt ~clusters in
  Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
  let vm = Harness.System.vm sys () in
  (* Fault on the 6th page: its whole cluster (pages 4-7) comes in. *)
  vm.Workloads.Vm.read (Types.vaddr_of_vpage (List.nth pages 5));
  let pager = Autarky.Runtime.pager rt in
  checkb "cluster resident" true
    (List.for_all
       (fun i -> Autarky.Pager.resident pager (List.nth pages i))
       [ 4; 5; 6; 7 ]);
  checkb "other clusters not fetched" true
    (not (Autarky.Pager.resident pager (List.hd pages)));
  checki "one cluster fetch" 1 (Autarky.Policy_clusters.cluster_fetches pc)

let test_cluster_policy_preserves_invariant_under_pressure () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let clusters = Autarky.Clusters.create () in
  let pages = cold_region sys 48 in
  Harness.System.manage sys pages;
  (* Twelve clusters of four pages; budget is 32 pages = 8 clusters. *)
  List.iteri
    (fun i p ->
      let c = i / 4 in
      if i mod 4 = 0 then ignore (Autarky.Clusters.new_cluster clusters ());
      Autarky.Clusters.ay_add_page clusters ~cluster:c p)
    pages;
  let pc = Autarky.Policy_clusters.create ~runtime:rt ~clusters in
  Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
  let vm = Harness.System.vm sys () in
  let rng = Metrics.Rng.create ~seed:15L in
  let pager = Autarky.Runtime.pager rt in
  for _ = 1 to 300 do
    let p = List.nth pages (Metrics.Rng.int rng 48) in
    vm.Workloads.Vm.read (Types.vaddr_of_vpage p);
    assert (
      Autarky.Clusters.invariant_holds clusters
        ~resident:(Autarky.Pager.resident pager))
  done;
  checkb "budget respected" true (Autarky.Pager.resident_count pager <= 32)

let test_cluster_victims_avoid_fetch_set () =
  (* Eviction must never pick a cluster overlapping the incoming fetch
     set: set up two clusters sharing a page so the first FIFO victim
     would overlap, and verify the policy skips to the disjoint one. *)
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let clusters = Autarky.Clusters.create () in
  let pages = cold_region sys 40 in
  Harness.System.manage sys pages;
  let arr = Array.of_list pages in
  let a = Autarky.Clusters.new_cluster clusters () in
  let b = Autarky.Clusters.new_cluster clusters () in
  let c = Autarky.Clusters.new_cluster clusters () in
  (* a: 0..15, b: 15..31 (sharing page 15 with a), c: 32..39 *)
  for i = 0 to 15 do Autarky.Clusters.ay_add_page clusters ~cluster:a arr.(i) done;
  for i = 15 to 31 do Autarky.Clusters.ay_add_page clusters ~cluster:b arr.(i) done;
  for i = 32 to 39 do Autarky.Clusters.ay_add_page clusters ~cluster:c arr.(i) done;
  let pc = Autarky.Policy_clusters.create ~runtime:rt ~clusters in
  Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
  let vm = Harness.System.vm sys () in
  (* Fetch cluster c first (8 pages, oldest), then fault on a: its
     transitive fetch set is a∪b = 32 pages; with budget 32, c must be
     evicted — not any page of a∪b. *)
  vm.Workloads.Vm.read (Sgx.Types.vaddr_of_vpage arr.(35));
  vm.Workloads.Vm.read (Sgx.Types.vaddr_of_vpage arr.(0));
  let pager = Autarky.Runtime.pager rt in
  checkb "a and b fully resident" true
    (List.for_all
       (fun i -> Autarky.Pager.resident pager arr.(i))
       (List.init 32 (fun i -> i)));
  checkb "c evicted" true
    (List.for_all
       (fun i -> not (Autarky.Pager.resident pager arr.(i)))
       [ 32; 33; 34; 35; 36; 37; 38; 39 ]);
  checkb "invariant holds" true
    (Autarky.Clusters.invariant_holds clusters
       ~resident:(Autarky.Pager.resident pager))

let test_pager_refetched_page_requeues () =
  (* Regression: a page that cycles out and back in must take a fresh
     FIFO position, not inherit its ancient slot. *)
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  let pages = cold_region sys 8 in
  Harness.System.manage sys pages;
  let arr = Array.of_list pages in
  Autarky.Pager.fetch pager pages;
  Autarky.Pager.evict pager [ arr.(0) ];
  Autarky.Pager.fetch pager [ arr.(0) ];
  (* arr.(0) was refetched last: the oldest resident is now arr.(1). *)
  checkb "refetched page moved to back" true
    (Autarky.Pager.oldest_resident pager = Some arr.(1))

(* --- argument checks ---------------------------------------------- *)

let test_pager_create_rejects_budget () =
  let sys = sys_small () in
  let rt = Harness.System.runtime_exn sys in
  Helpers.check_invalid_arg ~naming:"budget" (fun () ->
      Autarky.Pager.create ~machine:(Harness.System.machine sys)
        ~enclave:(Harness.System.enclave sys) ~os:(Autarky.Runtime.os rt)
        ~mech:`Sgx1 ~budget:0)

let rate_limit_with ?max_faults_per_unit ?evict_batch ?min_budget () =
  let rt = Harness.System.runtime_exn (sys_small ()) in
  Autarky.Policy_rate_limit.create ~runtime:rt ?max_faults_per_unit
    ?evict_batch ?min_budget ()

let test_rate_limit_rejects_max_faults () =
  Helpers.check_invalid_arg ~naming:"max_faults_per_unit" (fun () ->
      rate_limit_with ~max_faults_per_unit:0 ())

let test_rate_limit_rejects_evict_batch () =
  Helpers.check_invalid_arg ~naming:"evict_batch" (fun () ->
      rate_limit_with ~evict_batch:0 ())

let test_rate_limit_rejects_min_budget () =
  Helpers.check_invalid_arg ~naming:"min_budget" (fun () ->
      rate_limit_with ~min_budget:0 ())

let test_set_min_budget_rejects_n () =
  let rt = Harness.System.runtime_exn (sys_small ()) in
  let pc =
    Autarky.Policy_clusters.create ~runtime:rt
      ~clusters:(Autarky.Clusters.create ())
  in
  Helpers.check_invalid_arg ~naming:": n must" (fun () ->
      Autarky.Policy_clusters.set_min_budget pc 0)

let suite =
  [
    ("pager create rejects zero budget", `Quick, test_pager_create_rejects_budget);
    ("rate limit rejects zero max_faults_per_unit", `Quick,
     test_rate_limit_rejects_max_faults);
    ("rate limit rejects zero evict_batch", `Quick,
     test_rate_limit_rejects_evict_batch);
    ("rate limit rejects zero min_budget", `Quick,
     test_rate_limit_rejects_min_budget);
    ("cluster policy rejects zero min budget", `Quick,
     test_set_min_budget_rejects_n);
    ("pager fetch/evict (SGXv1)", `Quick, test_pager_fetch_evict_sgx1);
    ("pager refetched page requeues", `Quick, test_pager_refetched_page_requeues);
    ("cluster victims avoid fetch set", `Quick, test_cluster_victims_avoid_fetch_set);
    ("pager fetch/evict (SGXv2)", `Quick, test_pager_fetch_evict_sgx2);
    ("pager SGXv2 replay detected", `Quick, test_pager_sgx2_replay_detected);
    ("pager budget enforced", `Quick, test_pager_budget_enforced);
    ("pager make_room FIFO", `Quick, test_pager_make_room_fifo);
    ("runtime forwards OS-managed faults", `Quick, test_runtime_os_managed_forwarded);
    ("runtime dispatches legitimate misses", `Quick, test_runtime_legit_miss_dispatched);
    ("runtime detects unmap attack", `Quick, test_runtime_detects_unmap_attack);
    ("runtime detects A/D attack", `Quick, test_runtime_detects_ad_attack);
    ("runtime detects wrong-map attack", `Quick, test_runtime_detects_wrong_map_attack);
    ("runtime detects spurious entry", `Quick, test_runtime_detects_spurious_entry);
    ("runtime detects forced eviction", `Quick, test_runtime_detects_forced_eviction);
    ("pinned policy terminates on miss", `Quick, test_pinned_policy_terminates_on_miss);
    ("rate limit allows within budget", `Quick, test_rate_limit_allows_within_budget);
    ("rate limit terminates on flood", `Quick, test_rate_limit_terminates_on_flood);
    ("cluster policy fetches whole cluster", `Quick,
     test_cluster_policy_fetches_whole_cluster);
    ("cluster policy invariant under pressure", `Quick,
     test_cluster_policy_preserves_invariant_under_pressure);
  ]
