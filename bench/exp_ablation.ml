(* Ablations over the design choices DESIGN.md calls out:

   1. Eviction batch size for the rate-limited pager — the reason the
      ay_* ABI takes page lists (§5.2.1) and the driver evicts 16-page
      batches (§7.1).
   2. ORAM cache size — the enclave-managed cache is what Autarky makes
      safe (§5.2.2); sweeping it shows the practicality cliff.
   3. The accessed/dirty check cost — §7 assumes a pessimistic 10 cycles
      per TLB fill; sweep it to show the claim is robust.
   4. Cluster write-back policy — dirty-only (CoSMIX) vs always
      (dirtiness-oblivious) ORAM cache eviction. *)

let page = Exp_common.page
let rl_pages = 512

(* The paging-heavy platform the batch, victim-policy and host-call
   sweeps share: rate-limited paging under a 256-page budget over a
   512-page managed region past the resident prefix, read at the pages
   [next] draws from a [seed]ed RNG. *)
let rl_reads ?model ?evict_batch ?eviction ~seed ~ops next =
  let sys =
    Harness.System.create ?model ~epc_frames:1_024 ~epc_limit:512
      ~enclave_pages:4_096 ~self_paging:true ~budget:256 ()
  in
  let rt = Harness.System.runtime_exn sys in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt ?evict_batch ?eviction () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  let _burn = Harness.System.reserve sys ~pages:512 in
  let b = Harness.System.reserve sys ~pages:rl_pages in
  Harness.System.manage sys (List.init rl_pages (fun i -> b + i));
  let vm = Harness.System.vm sys () in
  let rng = Metrics.Rng.create ~seed in
  Harness.Measure.run sys (fun () ->
      for _ = 1 to ops do
        vm.Workloads.Vm.read ((b + next rng) * page)
      done)

(* --- 1. eviction batch size ------------------------------------------- *)

let batch_sweep () =
  Harness.Report.subheading "eviction batch size (rate-limited paging)";
  let run batch =
    let ops = 20_000 in
    let r =
      rl_reads ~evict_batch:batch ~seed:7L ~ops (fun rng ->
          Metrics.Rng.int rng rl_pages)
    in
    (batch, float_of_int r.Harness.Measure.cycles /. float_of_int ops,
     r.Harness.Measure.page_faults)
  in
  let rows =
    Par.map
      (fun batch ->
        let b, cyc, faults = run batch in
        [ string_of_int b; Harness.Report.f1 cyc; string_of_int faults ])
      [ 1; 4; 16; 64 ]
  in
  Harness.Report.table ~header:[ "batch"; "cycles/access"; "faults" ] ~rows;
  Harness.Report.note
    "larger batches amortize the host-call round trip, at the cost of \
     evicting still-useful pages (the fault column)"

(* --- 1b. eviction policy: FIFO vs fault-frequency ----------------------- *)

let eviction_policy_sweep () =
  Harness.Report.subheading
    "victim policy without accessed bits: FIFO vs fault-frequency (§5.1.4)";
  let run eviction skew =
    let dist =
      Metrics.Dist.hotspot ~n:rl_pages ~hot_fraction:0.1 ~hot_probability:skew
    in
    (rl_reads ~eviction ~seed:9L ~ops:20_000 (Metrics.Dist.sample dist))
      .Harness.Measure.page_faults
  in
  let rows =
    Par.map
      (fun skew ->
        [ Printf.sprintf "hotspot p=%.2f" skew;
          string_of_int (run `Fifo skew);
          string_of_int (run `Fault_frequency skew) ])
      [ 0.5; 0.8; 0.95 ]
  in
  Harness.Report.table
    ~header:[ "request skew"; "FIFO faults"; "fault-frequency faults" ] ~rows;
  Harness.Report.note
    "fault-frequency learns the hot set the runtime cannot see through \
     accessed bits — the coarse-grain heuristic §5.1.4 proposes"

(* --- 2. ORAM cache size ------------------------------------------------ *)

let oram_cache_sweep () =
  Harness.Report.subheading "ORAM page-cache size (the Autarky-enabled cache)";
  let data_pages = 2_048 in
  let run cache_pages =
    let b =
      Harness.Builder.create
        (Harness.Builder.spec ~oram_seed:Exp_common.oram_seed
           ~oram_cache_pages:cache_pages ~epc_frames:4_096 ~epc_limit:3_072
           ~enclave_pages:16_384 ~heap_pages:data_pages ~budget:2_900
           Harness.Builder.Oram)
    in
    b.finish ();
    let rng = Metrics.Rng.create ~seed:8L in
    let ops = 5_000 in
    let r =
      Harness.Measure.run b.sys (fun () ->
          for _ = 1 to ops do
            b.vm.Workloads.Vm.read
              ((Autarky.Allocator.base_vpage b.heap
               + Metrics.Rng.int rng data_pages)
              * page)
          done)
    in
    float_of_int r.Harness.Measure.cycles /. float_of_int ops
  in
  let rows =
    Par.map
      (fun frac ->
        let cache = data_pages * frac / 100 in
        [ Printf.sprintf "%d%% of data" frac; string_of_int cache;
          Harness.Report.f0 (run cache) ])
      [ 10; 25; 50; 75 ]
  in
  Harness.Report.table ~header:[ "cache"; "pages"; "cycles/access" ] ~rows;
  Harness.Report.note
    "without Autarky this cache is unsafe and every miss-ratio point \
     collapses to the uncached column of fig6"

(* --- 3. A/D-check cost -------------------------------------------------- *)

let ad_check_sweep () =
  Harness.Report.subheading "accessed/dirty check cost (nbench geomean, analytic)";
  (* One run counts fills; the check cost is applied analytically, as in
     the paper. *)
  let measured =
    Par.map
      (fun app ->
        let pages = app.Workloads.Nbench.nb_ws_pages in
        let sys =
          Harness.System.create ~epc_frames:(pages + 64) ~epc_limit:(pages + 32)
            ~enclave_pages:(pages + 64) ~self_paging:true ~budget:(pages + 16) ()
        in
        let base = Harness.System.reserve sys ~pages in
        Harness.System.pin sys (List.init pages (fun i -> base + i));
        let vm0 = Harness.System.vm sys () in
        let vm =
          { vm0 with
            Workloads.Vm.read = (fun a -> vm0.Workloads.Vm.read (a + (base * page))) }
        in
        let rng = Metrics.Rng.create ~seed:101L in
        let clock = Harness.System.clock sys in
        let counters = Harness.System.counters sys in
        let fills = ref 0 and cycles = ref 0 in
        Harness.System.run_in_enclave sys (fun () ->
            Workloads.Nbench.run app ~vm ~rng ~accesses:20_000;
            Metrics.Clock.reset clock;
            Workloads.Nbench.run app ~vm ~rng ~accesses:60_000;
            fills := Metrics.Counters.get counters "mmu.tlb_miss";
            cycles := Metrics.Clock.now clock);
        (!fills, !cycles))
      Workloads.Nbench.apps
  in
  let rows =
    List.map
      (fun check ->
        let geo =
          Metrics.Stats.geomean
            (List.map
               (fun (fills, cycles) ->
                 1.0
                 +. Workloads.Nbench.analytic_slowdown ~check_cycles:check ~fills
                      ~base_cycles:cycles)
               measured)
          -. 1.0
        in
        [ string_of_int check; Harness.Report.pct geo ])
      [ 5; 10; 20; 40 ]
  in
  Harness.Report.table ~header:[ "check cycles/fill"; "geomean slowdown" ] ~rows;
  Harness.Report.note "the 0.07%-class overhead claim survives a 4x cost error"

(* --- 4. write-back policy ------------------------------------------------ *)

let writeback_sweep () =
  Harness.Report.subheading "ORAM cache write-back: dirty-only vs always";
  let run writeback write_fraction =
    let sys =
      Harness.System.create ~epc_frames:2_048 ~epc_limit:1_024
        ~enclave_pages:8_192 ~self_paging:true ~budget:900 ()
    in
    let rt = Harness.System.runtime_exn sys in
    let data_pages = 1_024 in
    let data_base = Harness.System.reserve sys ~pages:data_pages in
    let cache_pages = 256 in
    let cache_base = Harness.System.reserve sys ~pages:cache_pages in
    Harness.System.pin sys (List.init cache_pages (fun i -> cache_base + i));
    let oram =
      Oram.Path_oram.create
        ~clock:(Harness.System.clock sys)
        ~rng:(Metrics.Rng.create ~seed:3L) ~n_blocks:data_pages ()
    in
    let cache =
      Autarky.Oram_cache.create ~writeback ~machine:(Harness.System.machine sys)
        ~enclave:(Harness.System.enclave sys)
        ~touch:(fun a k -> Sgx.Cpu.access (Harness.System.cpu sys) a k)
        ~oram ~data_base_vpage:data_base ~n_pages:data_pages
        ~cache_base_vpage:cache_base ~capacity_pages:cache_pages ()
    in
    let pol = Autarky.Policy_oram.create ~runtime:rt ~cache in
    Autarky.Runtime.set_policy rt (Autarky.Policy_oram.policy pol);
    let rng = Metrics.Rng.create ~seed:4L in
    let ops = 5_000 in
    let r =
      Harness.Measure.run sys (fun () ->
          for _ = 1 to ops do
            let addr = (data_base + Metrics.Rng.int rng data_pages) * page in
            if Metrics.Rng.float rng < write_fraction then
              Autarky.Oram_cache.access cache addr Sgx.Types.Write
            else Autarky.Oram_cache.access cache addr Sgx.Types.Read
          done)
    in
    float_of_int r.Harness.Measure.cycles /. float_of_int ops
  in
  let rows =
    Par.map
      (fun wf ->
        [ Printf.sprintf "%.0f%% writes" (100.0 *. wf);
          Harness.Report.f0 (run `Dirty_only wf);
          Harness.Report.f0 (run `Always wf) ])
      [ 0.0; 0.3; 1.0 ]
  in
  Harness.Report.table
    ~header:[ "workload"; "dirty-only cyc/access"; "always cyc/access" ] ~rows;
  Harness.Report.note
    "dirty-only (CoSMIX) is cheaper on read-heavy loads but its eviction \
     traffic reveals page dirtiness; `Always trades that back"

(* --- 5. exitless vs trap-based host calls -------------------------------- *)

let hostcall_sweep () =
  Harness.Report.subheading
    "ay_* host calls: exitless (Eleos/HotCalls) vs trap-based ocalls";
  let run model =
    let ops = 10_000 in
    let r =
      rl_reads ~model ~evict_batch:1 ~seed:12L ~ops (fun rng ->
          Metrics.Rng.int rng rl_pages)
    in
    float_of_int r.Harness.Measure.cycles /. float_of_int ops
  in
  let m = Metrics.Cost_model.default in
  let trap_model =
    (* An ocall that actually leaves the enclave: EEXIT + syscall + EENTER. *)
    { m with exitless_call = m.eexit + m.syscall + m.eenter }
  in
  let exitless, trapped =
    match Par.map run [ m; trap_model ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Harness.Report.table
    ~header:[ "host-call mechanism"; "cycles/access (paging-heavy)" ]
    ~rows:
      [ [ "exitless (1.2k/call)"; Harness.Report.f1 exitless ];
        [ Printf.sprintf "trap-based (%dk/call)"
            ((m.eexit + m.syscall + m.eenter) / 1000);
          Harness.Report.f1 trapped ] ];
  Harness.Report.note
    (Printf.sprintf
       "exitless host calls (the prototype's configuration, after Eleos) save \
        %.0f%% on this fault-heavy phase"
       (100.0 *. (trapped -. exitless) /. trapped))

let run () =
  Harness.Report.heading "ablation — design-choice sweeps";
  batch_sweep ();
  eviction_policy_sweep ();
  oram_cache_sweep ();
  ad_check_sweep ();
  writeback_sweep ();
  hostcall_sweep ()
