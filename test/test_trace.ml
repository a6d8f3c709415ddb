(* Tests for the trace subsystem: recorder ring semantics, sinks,
   canonical JSON, the OS-visible projection, and golden-trace
   determinism (the simulator is deterministic under a fixed seed, so
   two identical runs must produce byte-identical event streams). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let clock () = Metrics.Clock.create Metrics.Cost_model.default

let mark name = Trace.Event.Mark { name }

(* --- recorder ring ------------------------------------------------------ *)

let test_ring_overflow () =
  let tr = Trace.Recorder.create ~capacity:4 ~clock:(clock ()) () in
  let counting, count = Trace.Sink.counting () in
  Trace.Recorder.add_sink tr counting;
  for i = 0 to 9 do
    Trace.Recorder.emit tr ~actor:Trace.Event.Harness
      (mark (string_of_int i))
  done;
  checki "emitted" 10 (Trace.Recorder.emitted tr);
  checki "retained" 4 (Trace.Recorder.retained tr);
  checki "dropped" 6 (Trace.Recorder.dropped tr);
  Alcotest.(check (list int)) "ring keeps the tail" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Trace.Event.seq) (Trace.Recorder.events tr));
  (* Sinks are not bounded by the ring: they saw the full stream. *)
  checki "sink saw everything" 10 (count ())

let test_bad_capacity () =
  checkb "capacity must be positive" true
    (try
       ignore (Trace.Recorder.create ~capacity:0 ~clock:(clock ()) ());
       false
     with Invalid_argument _ -> true)

let test_inactive_recorder () =
  let tr = Trace.Recorder.create ~clock:(clock ()) () in
  Trace.Recorder.set_active tr false;
  Trace.Recorder.emit tr ~actor:Trace.Event.Harness (mark "ignored");
  checki "nothing emitted" 0 (Trace.Recorder.emitted tr);
  Trace.Recorder.set_active tr true;
  Trace.Recorder.emit tr ~actor:Trace.Event.Harness (mark "kept");
  checki "emitted after reactivation" 1 (Trace.Recorder.emitted tr)

(* --- canonical JSON ----------------------------------------------------- *)

let test_json_well_formed () =
  let tr = Trace.Recorder.create ~clock:(clock ()) () in
  let emit k = Trace.Recorder.emit tr ~enclave:1 ~actor:Trace.Event.Hw k in
  emit
    (Trace.Event.Fault
       { vpage = 7; access = Trace.Event.Write; cause = "not-present";
         reported_vpage = 0; reported_access = Trace.Event.Read; masked = true });
  emit (Trace.Event.Fetch { vpages = [ 1; 2; 3 ]; enclave_initiated = true });
  emit (Trace.Event.Syscall { name = "fetch_pages"; pages = 3 });
  (* Escaping: quotes, backslashes and control characters must survive. *)
  emit (mark "quote\" back\\slash \ntab\t");
  List.iter
    (fun e ->
      match Trace.Jsonl.validate (Trace.Event.to_json e) with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "invalid JSON for %s: %s" (Trace.Event.to_json e) msg)
    (Trace.Recorder.events tr)

(* --- a pinned deterministic scenario ------------------------------------ *)

(* Small self-paging system under the rate-limit policy: 128 managed
   data pages against a 96-frame budget, 400 seeded random reads —
   enough to exercise faults, handler entries, policy decisions,
   fetches and evictions. *)
let run_pinned_scenario () =
  let sys =
    Harness.System.create ~trace:true ~epc_frames:256 ~epc_limit:128
      ~enclave_pages:512 ~self_paging:true ~budget:96 ()
  in
  let tr = Harness.System.tracer_exn sys in
  let dsink, dres = Trace.Sink.digest () in
  Trace.Recorder.add_sink tr dsink;
  let rt = Harness.System.runtime_exn sys in
  let rl =
    Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit:100_000 ()
  in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  (* Skip the initially-resident prefix (the first [epc_limit] pages are
     populated resident at build time) so every read demand-faults. *)
  let _resident_prefix = Harness.System.reserve sys ~pages:128 in
  let b = Harness.System.reserve sys ~pages:128 in
  Harness.System.manage sys (List.init 128 (fun i -> b + i));
  let rng = Metrics.Rng.create ~seed:11L in
  let vm = Harness.System.vm sys () in
  Harness.System.mark sys "measurement-start";
  Harness.System.run_in_enclave sys (fun () ->
      for _ = 1 to 400 do
        vm.Workloads.Vm.read
          ((b + Metrics.Rng.int rng 128) * Sgx.Types.page_bytes)
      done);
  Harness.System.mark sys "measurement-end";
  Trace.Recorder.close tr;
  (sys, dres ())

(* Regression anchor: the digest of the pinned scenario above.  A
   change here means event emission, serialization, or simulator
   behavior changed — intentional changes must update the constant. *)
let pinned_digest = "fnv64:c74b94f94e7b75e5"

let test_golden_trace_determinism () =
  let _, d1 = run_pinned_scenario () in
  let _, d2 = run_pinned_scenario () in
  checks "same seed, same digest" d1 d2;
  checks "pinned regression digest" pinned_digest d1

(* The clusters policy on SGXv1: a 160-page allocator heap in clusters
   of 8 against a 64-page budget, six pages each shared with the next
   cluster (so the chains 0-1-2, 5-6, 11-12 and 16-17 make transitive
   fetch sets), 400 seeded reads with one balloon upcall half-way.
   Pages 0 and 40 are the lowest of their components, so they head the
   FIFO after a fetch and their evict set — the later of their two
   clusters — decides the victim.  Pins the fetch order, victim choice
   and whole-cluster eviction the rate-limit scenario above never
   reaches. *)
let run_clusters_scenario () =
  let sys =
    Harness.System.create ~trace:true ~epc_frames:256 ~epc_limit:128
      ~enclave_pages:1024 ~self_paging:true ~budget:64 ()
  in
  let tr = Harness.System.tracer_exn sys in
  let dsink, dres = Trace.Sink.digest () in
  Trace.Recorder.add_sink tr dsink;
  let rt = Harness.System.runtime_exn sys in
  let _resident_prefix = Harness.System.reserve sys ~pages:128 in
  let heap = Harness.System.allocator sys ~pages:160 ~cluster_pages:8 in
  let pages =
    Array.init 160 (fun _ ->
        Sgx.Types.vpage_of_vaddr
          (Autarky.Allocator.alloc heap ~bytes:Sgx.Types.page_bytes))
  in
  let cl = Harness.System.clusters_of heap in
  List.iter
    (fun i ->
      match Autarky.Clusters.ay_get_cluster_ids cl pages.(i + 8) with
      | id :: _ -> Autarky.Clusters.ay_add_page cl ~cluster:id pages.(i)
      | [] -> Alcotest.fail "heap page without a cluster")
    [ 0; 3; 11; 40; 91; 130 ];
  Harness.System.manage sys (Array.to_list pages);
  let pc = Autarky.Policy_clusters.create ~runtime:rt ~clusters:cl in
  Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
  let rng = Metrics.Rng.create ~seed:13L in
  let vm = Harness.System.vm sys () in
  let reads n =
    Harness.System.run_in_enclave sys (fun () ->
        for _ = 1 to n do
          vm.Workloads.Vm.read
            (Sgx.Types.vaddr_of_vpage pages.(Metrics.Rng.int rng 160))
        done)
  in
  Harness.System.mark sys "measurement-start";
  reads 200;
  ignore
    (Sim_os.Kernel.request_balloon (Harness.System.os sys)
       (Harness.System.proc sys) ~pages:16);
  reads 200;
  Harness.System.mark sys "measurement-end";
  Trace.Recorder.close tr;
  (sys, pc, dres ())

(* Computed before the component-indexed Clusters rewrite and pinned:
   the rewrite must not move a single cluster fetch or victim. *)
let pinned_clusters_digest = "fnv64:2676e45afea6c80f"

let test_golden_clusters_trace () =
  let sys, pc, d1 = run_clusters_scenario () in
  let _, _, d2 = run_clusters_scenario () in
  let c name = Metrics.Counters.get (Harness.System.counters sys) name in
  checkb "cluster fetches happened" true (Autarky.Policy_clusters.cluster_fetches pc > 50);
  checkb "whole clusters evicted" true (c "rt.pages_evicted" > 100);
  checki "one balloon upcall" 1 (c "os.balloon_requests");
  checks "same seed, same digest" d1 d2;
  checks "pinned clusters digest" pinned_clusters_digest d1

let test_query_digest_matches_streaming () =
  let sys, _ = run_pinned_scenario () in
  let events = Trace.Recorder.events (Harness.System.tracer_exn sys) in
  let sink, result = Trace.Sink.digest () in
  List.iter (fun e -> Trace.Sink.push sink e) events;
  checks "offline digest = streaming digest" (result ())
    (Trace.Query.digest events)

(* --- OS-visible projection ---------------------------------------------- *)

let test_os_projection () =
  let sys, _ = run_pinned_scenario () in
  let events = Trace.Recorder.events (Harness.System.tracer_exn sys) in
  let private_kinds = [ "handler"; "decision"; "mark" ] in
  let count_kinds ks evs =
    List.fold_left (fun n k -> n + List.length (Trace.Query.by_kind k evs)) 0 ks
  in
  (* The full trace contains enclave-private events... *)
  checkb "full trace has private events" true (count_kinds private_kinds events > 0);
  checkb "full trace has faults" true
    (Trace.Query.by_kind "fault" events <> []);
  (* ...and the projection excludes every one of them. *)
  let proj = Trace.Query.os_projection events in
  checki "projection excludes private events" 0 (count_kinds private_kinds proj);
  (* Faults from a self-paging enclave are masked to the report the
     hardware actually gave the OS: enclave base, read access, no
     architectural cause. *)
  let base = (Harness.System.enclave sys).Sgx.Enclave.base_vpage in
  List.iter
    (fun e ->
      match e.Trace.Event.kind with
      | Trace.Event.Fault { vpage; access; cause; masked; _ } ->
        checkb "masked" true masked;
        checki "address masked to enclave base" base vpage;
        checkb "access masked to read" true (access = Trace.Event.Read);
        checks "cause hidden" "" cause
      | _ -> ())
    (Trace.Query.by_kind "fault" proj);
  (* OS-performed activity passes through. *)
  checkb "paging visible to the OS" true
    (Trace.Query.by_kind "fetch" proj <> [])

(* --- Instrument range registry ------------------------------------------ *)

let test_annotate_overlap_rejected () =
  let i = Autarky.Instrument.create ~fallback:(fun _ _ -> ()) in
  Autarky.Instrument.annotate i ~base_vpage:100 ~pages:8 (fun _ _ -> ());
  Autarky.Instrument.annotate i ~base_vpage:200 ~pages:8 (fun _ _ -> ());
  checkb "overlapping range rejected" true
    (try
       Autarky.Instrument.annotate i ~base_vpage:104 ~pages:8 (fun _ _ -> ());
       false
     with Invalid_argument _ -> true);
  checkb "containing range rejected" true
    (try
       Autarky.Instrument.annotate i ~base_vpage:96 ~pages:120 (fun _ _ -> ());
       false
     with Invalid_argument _ -> true);
  checki "registry unchanged by rejections" 2
    (List.length (Autarky.Instrument.ranges i))

let suite =
  [
    ("ring overflow drop accounting", `Quick, test_ring_overflow);
    ("non-positive capacity rejected", `Quick, test_bad_capacity);
    ("inactive recorder is silent", `Quick, test_inactive_recorder);
    ("canonical JSON well-formed", `Quick, test_json_well_formed);
    ("golden trace determinism", `Quick, test_golden_trace_determinism);
    ("golden clusters trace", `Quick, test_golden_clusters_trace);
    ("query digest = streaming digest", `Quick, test_query_digest_matches_streaming);
    ("OS-visible projection", `Quick, test_os_projection);
    ("overlapping annotate rejected", `Quick, test_annotate_overlap_rejected);
  ]
