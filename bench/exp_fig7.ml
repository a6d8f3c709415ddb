(* Figure 7: rate-limited demand paging for the 14 Phoenix/PARSEC
   applications with ~100 MB EPC — slowdown relative to an unprotected
   baseline, and the page-fault rate each application sustains.

   Paper results: 6% mean slowdown (2% with AEX elision), slowdown
   correlated with fault rate, no recompilation.  Varys, the comparable
   software-only defense, reports 15%. *)

let epc_limit = 25_600 (* ~100 MB *)
let units = 150
let rate_limit = 400 (* faults per progress unit; tuned to avoid false positives *)

let run_app ?mode (spec : Workloads.Kernels.spec) ~self_paging () =
  let enclave_pages = spec.ws_pages + 256 in
  let sys =
    Harness.System.create ?mode ~epc_frames:(epc_limit + 1_024) ~epc_limit
      ~enclave_pages ~self_paging ~budget:(epc_limit - 256) ()
  in
  let base = Harness.System.reserve sys ~pages:spec.ws_pages in
  let progress_hook = ref (fun () -> ()) in
  let vm0 = Harness.System.vm sys ~on_progress:(fun () -> !progress_hook ()) () in
  if self_paging then begin
    let rt = Harness.System.runtime_exn sys in
    let rl =
      Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit:rate_limit ()
    in
    Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
    Harness.System.manage sys (List.init spec.ws_pages (fun i -> base + i));
    progress_hook := fun () -> Autarky.Policy_rate_limit.progress rl
  end;
  let rng = Metrics.Rng.create ~seed:2020L in
  (* Warm the working set (up to the EPC allowance), emitting progress
     so the warmup's own cold faults stay under the rate limit.  Touch
     descending so the hot subset (low page indices) is resident when
     FIFO eviction has trimmed the sweep to the budget. *)
  for i = spec.ws_pages - 1 downto 0 do
    vm0.Workloads.Vm.read ((base + i) * Exp_common.page);
    if i mod 64 = 0 then vm0.Workloads.Vm.progress ()
  done;
  let r =
    Harness.Measure.run sys (fun () ->
        Workloads.Kernels.run spec ~vm:vm0 ~rng ~base_page:base ~units ())
  in
  r

let run () =
  Harness.Report.heading
    "fig7 — rate-limited paging, Phoenix + PARSEC, ~100 MB EPC";
  let rows = ref [] in
  let slowdowns = ref [] in
  let slowdowns_elided = ref [] in
  let slowdowns_analytic = ref [] in
  (* Each application's three runs (baseline, autarky, elided) are one
     self-contained cell; the per-app progress lines print after the
     merge, in suite order, so the output is identical at any --jobs. *)
  let measured =
    Par.map
      (fun spec ->
        let base = run_app spec ~self_paging:false () in
        let auta = run_app spec ~self_paging:true () in
        let elided =
          run_app ~mode:Sgx.Machine.No_upcall_no_aex spec ~self_paging:true ()
        in
        (spec, base, auta, elided))
      Workloads.Kernels.suite
  in
  List.iter
    (fun ((spec : Workloads.Kernels.spec), base, auta, elided) ->
      let slowdown =
        float_of_int auta.Harness.Measure.cycles
        /. float_of_int base.Harness.Measure.cycles
      in
      let slowdown_e =
        float_of_int elided.Harness.Measure.cycles
        /. float_of_int base.Harness.Measure.cycles
      in
      (* The paper's 2% figure for elision is analytic: it removes only
         the direct transition cycles.  (The full simulation — the
         previous column — shows a larger win because elision also
         preserves TLB state across faults.) *)
      let cm = Metrics.Cost_model.default in
      let transition_savings =
        cm.aex + cm.eresume + cm.eenter + cm.eexit + cm.eresume
        - cm.aex_elided_entry - cm.inenclave_resume
      in
      let slowdown_a =
        float_of_int
          (auta.Harness.Measure.cycles
          - (auta.Harness.Measure.page_faults * transition_savings))
        /. float_of_int base.Harness.Measure.cycles
      in
      let pf_rate = Harness.Measure.fault_rate auta in
      slowdowns := slowdown :: !slowdowns;
      slowdowns_elided := slowdown_e :: !slowdowns_elided;
      slowdowns_analytic := slowdown_a :: !slowdowns_analytic;
      rows :=
        [ spec.Workloads.Kernels.k_name;
          (match spec.suite with `Phoenix -> "phoenix" | `Parsec -> "parsec");
          string_of_int (spec.ws_pages * 4096 / 1048576) ^ " MB";
          Printf.sprintf "%.3f" slowdown;
          Printf.sprintf "%.3f" slowdown_a;
          Printf.sprintf "%.3f" slowdown_e;
          Harness.Report.si pf_rate ^ "/s";
          string_of_int auta.Harness.Measure.page_faults ]
        :: !rows;
      Printf.printf
        "  %-10s slowdown %.3f (elided: analytic %.3f, simulated %.3f)  pf-rate %s/s\n%!"
        spec.k_name slowdown slowdown_a slowdown_e (Harness.Report.si pf_rate))
    measured;
  Harness.Report.table
    ~header:
      [ "application"; "suite"; "working set"; "slowdown";
        "no-AEX (analytic)"; "no-AEX (simulated)"; "fault rate"; "faults" ]
    ~rows:(List.rev !rows);
  let geo = Metrics.Stats.geomean !slowdowns in
  let geo_e = Metrics.Stats.geomean !slowdowns_elided in
  let geo_a = Metrics.Stats.geomean !slowdowns_analytic in
  Harness.Report.note
    (Printf.sprintf
       "geomean slowdown: %.3f as measured, %.3f with AEX elision (analytic) \
        (paper: 1.06 and 1.02; Varys reports 1.15)"
       geo geo_a);
  Harness.Report.note
    (Printf.sprintf
       "fully simulated elision gives %.3f: beyond removing transition cycles \
        it preserves TLB state across faults, making secure paging faster than \
        unprotected paging (the paper's §7.1 observation)"
       geo_e);
  Harness.Report.note
    "fault rate correlates with slowdown; in-EPC applications pay ~nothing"
