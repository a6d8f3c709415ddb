(* Figure 8: Memcached under YCSB workload C, four request distributions
   x four schemes (insecure baseline, rate-limited paging, 10-page
   clusters, cached ORAM), at 1/8 the paper's 400 MB store.

   Paper shapes: rate-limit costs least; uniform favours clusters over
   ORAM; as skew grows the gap closes and ORAM can win; on the hottest
   distribution ORAM is within ~60% of the insecure baseline. *)

let n_entries = 49_152
let value_bytes = 1_024
let heap_pages = 16_384
let epc_limit = 6_000
let oram_cache = 4_000
let warmup = 500
let requests = 4_000

let distributions =
  [ ("uniform", fun () -> Metrics.Dist.uniform ~n:n_entries);
    ("zipf(0.99)", fun () -> Metrics.Dist.scrambled_zipfian ~n:n_entries ());
    ("hotspot(0.9)", fun () ->
       Metrics.Dist.hotspot ~n:n_entries ~hot_fraction:0.01 ~hot_probability:0.9);
    ("hotspot(0.99)", fun () ->
       Metrics.Dist.hotspot ~n:n_entries ~hot_fraction:0.01 ~hot_probability:0.99) ]

(* Clusters are the builder's 10 pages. *)
let schemes =
  List.map
    (fun policy ->
      Harness.Builder.spec ~oram_seed:Exp_common.oram_seed
        ~oram_cache_pages:oram_cache ~rate_limit:64 ~epc_frames:(epc_limit + 1_024)
        ~epc_limit ~enclave_pages:32_768 ~heap_pages ~budget:(epc_limit - 256)
        policy)
    Harness.Builder.[ Baseline; Rate_limit; Clusters; Oram ]

let build_store scheme =
  let b = Harness.Builder.create scheme in
  let rng = Metrics.Rng.create ~seed:88L in
  let alloc ~bytes = Autarky.Allocator.alloc b.heap ~bytes in
  let kv =
    Workloads.Kvstore.create ~vm:b.vm ~alloc ~rng ~n_entries ~value_bytes
      ~slab_pages:10 ()
  in
  b.finish ();
  (b, kv)

let measure (b : Harness.Builder.t) kv dist =
  let rng = Metrics.Rng.create ~seed:77L in
  let gen = Workloads.Ycsb.workload_c ~dist ~rng in
  let serve () =
    match Workloads.Ycsb.next gen with
    | Workloads.Ycsb.Get k -> ignore (Workloads.Kvstore.get kv ~key:k)
    | _ -> ()
  in
  for _ = 1 to warmup do
    serve ()
  done;
  let r =
    Harness.Measure.run b.sys (fun () ->
        for _ = 1 to requests do
          serve ()
        done)
  in
  Harness.Measure.throughput r ~ops:requests

let run () =
  Harness.Report.heading "fig8 — Memcached (YCSB C) throughput, 1/8 scale";
  Printf.printf "%d entries x %d B (%.0f MB), EPC allowance %.0f MB, ORAM cache %.0f MB\n"
    n_entries value_bytes
    (float_of_int (n_entries * (value_bytes + 64)) /. 1048576.0)
    (float_of_int (epc_limit * 4096) /. 1048576.0)
    (float_of_int (oram_cache * 4096) /. 1048576.0);
  (* Build each scheme's store once; run all distributions against it.
     Schemes are independent cells (own platform, own RNGs), so they
     shard across the domain pool; progress lines print after the merge
     so the output is byte-identical at any --jobs. *)
  let results =
    Par.map
      (fun scheme ->
        let b, kv = build_store scheme in
        let tps =
          List.map (fun (dname, mk) -> (dname, measure b kv (mk ()))) distributions
        in
        (scheme, tps))
      schemes
  in
  List.iter
    (fun (scheme, tps) ->
      Printf.printf "  built %s store\n%!" (Exp_common.scheme_name scheme);
      List.iter
        (fun (dname, tp) ->
          Printf.printf "    %-14s %-18s %9.0f req/s\n%!" dname
            (Exp_common.scheme_name scheme) tp)
        tps)
    results;
  let header = "distribution" :: List.map Exp_common.scheme_name schemes in
  let rows =
    List.map
      (fun (dname, _) ->
        dname
        :: List.map
             (fun (_, tps) -> Harness.Report.f0 (List.assoc dname tps))
             results)
      distributions
  in
  Harness.Report.table ~header ~rows;
  (* Shape checks the paper calls out. *)
  let tp scheme dname =
    List.assoc dname (List.assq scheme results)
  in
  let baseline = List.nth schemes 0 in
  let rl = List.nth schemes 1 in
  let cl = List.nth schemes 2 in
  let oram = List.nth schemes 3 in
  Harness.Report.note
    (Printf.sprintf "rate-limit overhead is the lowest of the protections \
                     (uniform: %.0f%% of baseline)"
       (100.0 *. tp rl "uniform" /. tp baseline "uniform"));
  Harness.Report.note
    (Printf.sprintf "uniform: clusters/ORAM = %.2f (paper: clusters ahead)"
       (tp cl "uniform" /. tp oram "uniform"));
  Harness.Report.note
    (Printf.sprintf "hotspot(0.99): clusters/ORAM = %.2f (paper: gap closes, \
                     ORAM can win)"
       (tp cl "hotspot(0.99)" /. tp oram "hotspot(0.99)"));
  Harness.Report.note
    (Printf.sprintf "hotspot(0.99): ORAM at %.0f%% of the insecure baseline \
                     (paper: ~60%% slower)"
       (100.0 *. tp oram "hotspot(0.99)" /. tp baseline "hotspot(0.99)"))
