(* The repository benchmark: one command, three workloads.

     bench --workload solo-clusters|solo-oram|fleet --seed N --seconds S
           --trace 0|1

   A run repeats "build a fresh world, run a fixed op stream" until
   [--seconds] have passed, then reports medians over the repetitions.
   Every repetition of a run replays the same seeded inputs, so every
   modeled output must repeat exactly; the run fails when one does not.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] alternates
   plain and traced repetitions and prints the per-layer split: self
   time per layer from the spans (host ns and modeled cycles, each
   adding up exactly to the measured total), per-seam call counts and
   quantiles, the deterministic counters, and the tracing overhead.

   Human-readable lines go to stdout first; the last line is one JSON
   object {correct, attempted, failed, metrics}.  Any failed output or
   non-vacuity check prints [correct: false] and exits 1. *)

let usage =
  "usage: bench --workload solo-clusters|solo-oram|fleet [--seed N] [--seconds S] \
   [--trace 0|1]"

let die msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 30.0 and trace = ref false in
  let int_of name v =
    match int_of_string_opt v with Some n -> n | None -> die (name ^ ": not an integer: " ^ v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      let s = int_of "--seconds" v in
      if s < 1 then die "--seconds: must be at least 1";
      seconds := float_of_int s;
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> die "--trace: 0 or 1");
      go rest
    | a :: _ -> die ("unknown or incomplete argument: " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some ("solo-clusters" | "solo-oram" | "fleet" as w) ->
    { workload = w; seed = !seed; seconds = !seconds; trace = !trace }
  | Some w -> die ("unknown workload: " ^ w)
  | None -> die "--workload is required"

(* --- per-workload sizing -------------------------------------------- *)

(* Ops per repetition: about half a host second each, so a 30 s run
   holds 25 or more repetitions and the median rides out the bursts of
   cache contention a shared host adds (+-10% and more per repetition). *)
let solo_ops = function "solo-oram" -> 100_000 | _ -> 20_000
let solo_warm_cap = 20_000

(* The seeded inputs are generated once per run, outside every timed
   phase; each repetition replays them on a fresh world. *)
let runner args : ?tr:Spans.t -> unit -> Worlds.rep =
  match args.workload with
  | "fleet" -> fun ?tr () -> Worlds.run_fleet ?tr ~seed:args.seed ()
  | w ->
    let oram = w = "solo-oram" in
    let inp =
      Worlds.solo_inputs ~seed:args.seed
        ~mix:(if oram then Worlds.Half_set else Worlds.Read_only)
        ~ops:(solo_ops w) ~warm:solo_warm_cap
    in
    fun ?tr () -> Worlds.run_solo ?tr ~oram inp

(* --- statistics ----------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let setup_total (r : Worlds.rep) = List.fold_left (fun a (_, s) -> a +. s) 0.0 r.setup
let ops_per_s (r : Worlds.rep) = float_of_int r.ops /. r.host_s

(* --- output --------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let line name v unit note =
  Printf.printf "  %-36s %16s %-8s%s\n" name (json_number v) unit
    (if note = "" then "" else "  " ^ note)

(* --- the traced split ----------------------------------------------- *)

(* Every per-layer metric, in print order, with its unit.  Each is
   printed for every workload; one that a workload never exercises
   reads 0 (see README.md for which workload moves which metric). *)
let per_layer_metrics =
  List.concat_map
    (fun l -> [ (l ^ ".self_share", "ratio"); (l ^ ".self_cycles_share", "ratio") ])
    (Array.to_list Spans.layer_names)
  @ [ ("sgx.accesses_per_op", "accesses/op"); ("sgx.tlb_miss_share", "ratio");
      ("sgx.faults_per_kop", "faults/kop"); ("sgx.transitions_per_op", "instr/op");
      ("sgx.paging_instr_per_op", "instr/op"); ("autarky.misses_per_kop", "misses/kop");
      ("autarky.pages_fetched_per_miss", "pages/miss");
      ("autarky.pages_evicted_per_miss", "pages/miss");
      ("autarky.fetch_retries_per_kop", "retries/kop"); ("autarky.miss_ns_p50", "ns");
      ("autarky.miss_ns_p99", "ns"); ("autarky.miss_samples", "count");
      ("autarky.miss_tail_percentile", "percentile"); ("sim_os.calls_per_op", "calls/op");
      ("sim_os.calls_per_op.fetch_pages", "calls/op");
      ("sim_os.calls_per_op.evict_pages", "calls/op"); ("sim_os.call_ns_p50", "ns");
      ("sim_os.call_ns_p99", "ns"); ("sim_os.call_samples", "count");
      ("sim_os.call_tail_percentile", "percentile"); ("sim_os.refusals_per_kop", "refusals/kop");
      ("sim_crypto.seals_per_op", "seals/op"); ("sim_crypto.unseals_per_op", "unseals/op");
      ("oram.path_accesses_per_op", "accesses/op"); ("oram.cache_miss_share", "ratio");
      ("serve.request_ns_p50", "ns"); ("serve.request_ns_p99", "ns");
      ("serve.request_samples", "count"); ("serve.request_tail_percentile", "percentile") ]
  @ List.map (fun c -> ("serve.request_share." ^ c, "ratio")) (Array.to_list Worlds.classes)
  @ [ ("serve.shed_share", "ratio"); ("serve.missed_share", "ratio"); ("serve.joins", "count");
      ("serve.departures", "count"); ("serve.boot_cycles_per_join", "cycles");
      ("hypervisor.arbiter_moves", "count"); ("hypervisor.frames_moved", "frames");
      ("harness.build_s", "s"); ("workloads.populate_s", "s"); ("workloads.warmup_s", "s");
      ("oram.init_s", "s"); ("serve.start_s", "s");
      ("gc.major_collections_per_kop", "collections/kop"); ("latency.samples", "count");
      ("latency.tail_percentile", "percentile"); ("tracing.overhead_share", "ratio") ]

(* Median, tail and sample count of one kept layer's span durations. *)
let span_quantiles name tr layer =
  let d = Spans.durations tr layer in
  let q, v = Spans.tail d ~p:99 in
  [ (name ^ "_ns_p50", float_of_int (Spans.quantile d 50)); (name ^ "_ns_p99", float_of_int v);
    (name ^ "_samples", float_of_int (Array.length d));
    (name ^ "_tail_percentile", float_of_int q) ]

let layer_values args ~plain ~traced (tr : Spans.t) =
  let share part total = if total = 0 then 0.0 else float_of_int part /. float_of_int total in
  let layer l tag = Spans.layer_of_tag tag = l in
  let ops = List.fold_left (fun a (r : Worlds.rep) -> a + r.ops) 0 traced in
  let per_op k = float_of_int k /. float_of_int (max 1 ops) in
  let os_calls f =
    let i = ref 0 in
    Array.iteri (fun j n -> if n = f then i := j) Worlds.os_functions;
    ( "sim_os.calls_per_op." ^ f,
      per_op (Spans.calls tr (fun t -> layer Spans.sim_os t && Spans.sub_of_tag t = !i)) )
  in
  let r0 = List.hd plain in
  let setup name =
    median (List.map (fun (r : Worlds.rep) -> Option.value (List.assoc_opt name r.setup) ~default:0.0) plain)
  in
  let plain_rate = median (List.map ops_per_s plain) in
  let traced_rate = median (List.map ops_per_s traced) in
  (* ORAM cache misses per accessor call: the miss count repeats exactly
     in every repetition; the accessor calls come from the spans. *)
  let oram_calls = Spans.calls tr (layer Spans.oram) in
  let oram_misses =
    Option.value (List.assoc_opt "oram.cache_misses_per_op" r0.counts) ~default:0.0
    *. float_of_int ops
  in
  List.concat
    (List.init Spans.n_layers (fun l ->
         let n = Spans.layer_names.(l) in
         [ (n ^ ".self_share", share tr.self_ns.(l) tr.total_ns);
           (n ^ ".self_cycles_share", share tr.self_cycles.(l) tr.total_cycles) ]))
  @ (if args.workload = "fleet" then [ ("sgx.accesses_per_op", per_op !Worlds.request_accesses) ]
     else [])
  @ r0.counts
  @ [ ("sim_os.calls_per_op", per_op (Spans.calls tr (layer Spans.sim_os)));
      os_calls "fetch_pages"; os_calls "evict_pages";
      ("sim_os.refusals_per_kop", 1000.0 *. per_op !Worlds.refusals);
      ("oram.cache_miss_share", if oram_calls = 0 then 0.0 else oram_misses /. float_of_int oram_calls) ]
  @ span_quantiles "autarky.miss" tr Spans.autarky
  @ span_quantiles "sim_os.call" tr Spans.sim_os
  @ (if args.workload = "fleet" then
       span_quantiles "serve.request" tr Spans.workloads
       @ List.mapi
           (fun k c ->
             ( "serve.request_share." ^ c,
               share (Spans.span_ns tr (fun t -> t = Spans.tag ~sub:k Spans.workloads)) tr.total_ns ))
           (Array.to_list Worlds.classes)
     else [])
  @ List.map (fun n -> (n, setup n))
      [ "harness.build_s"; "workloads.populate_s"; "workloads.warmup_s"; "oram.init_s";
        "serve.start_s" ]
  @ [ ("latency.samples", float_of_int r0.latency.samples);
      ("latency.tail_percentile", float_of_int r0.latency.tail_pct);
      ("tracing.overhead_share", (plain_rate -. traced_rate) /. plain_rate) ]

let layer_metrics args ~plain ~traced tr =
  let values = layer_values args ~plain ~traced tr in
  List.map
    (fun (name, unit) -> (name, Option.value (List.assoc_opt name values) ~default:0.0, unit))
    per_layer_metrics

(* --- main ----------------------------------------------------------- *)

let () =
  let args = parse_args () in
  let t_start = Spans.now_ns () in
  let elapsed () = float_of_int (Spans.now_ns () - t_start) /. 1e9 in
  let tr = Spans.create () in
  let run_rep = runner args in
  let plain = ref [] and traced = ref [] in
  let problems = ref [] in
  let reference = ref None in
  let min_reps = if args.trace then 4 else 3 in
  let k = ref 0 in
  while !k < min_reps || elapsed () < args.seconds do
    let traced_rep = args.trace && !k mod 2 = 1 in
    Gc.full_major ();
    let r =
      if traced_rep then run_rep ~tr () else run_rep ()
    in
    (match !reference with
    | None -> reference := Some r.modeled
    | Some m ->
      if m <> r.modeled then
        problems :=
          Printf.sprintf "rep %d (%s): modeled outputs differ from rep 0" !k
            (if traced_rep then "traced" else "plain")
          :: !problems);
    List.iter
      (fun (name, ok) -> if not ok then problems := Printf.sprintf "rep %d: check failed: %s" !k name :: !problems)
      r.checks;
    if traced_rep then traced := r :: !traced else plain := r :: !plain;
    incr k
  done;
  let plain = List.rev !plain and traced = List.rev !traced in
  let all = plain @ traced in
  let attempted = List.fold_left (fun a (r : Worlds.rep) -> a + r.ops) 0 all in
  let failed = List.fold_left (fun a (r : Worlds.rep) -> a + r.failed) 0 all in
  let r0 = List.hd plain in
  let lat = r0.latency in
  let heap_mb = median (List.map (fun (r : Worlds.rep) -> r.live_mb) plain) in
  let modeled_per_op = float_of_int r0.cycles /. float_of_int r0.ops in
  let fail_share =
    match args.workload with
    | "fleet" ->
      Option.value (List.assoc_opt "serve.shed_share" r0.counts) ~default:0.0
      +. Option.value (List.assoc_opt "serve.missed_share" r0.counts) ~default:0.0
    | _ -> float_of_int r0.failed /. float_of_int r0.ops
  in
  let end_to_end =
    [ ("ops_per_s", median (List.map ops_per_s plain), "ops/s");
      ("setup_s", median (List.map setup_total plain), "s");
      ("heap_peak_mb", heap_mb, "MB");
      ("alloc_bytes_per_op",
        median (List.map (fun (r : Worlds.rep) -> r.alloc_bytes /. float_of_int r.ops) plain), "B");
      ("modeled_cycles_per_op", modeled_per_op, "cycles");
      ("latency_p50_cycles", lat.p50, "cycles");
      ("latency_p99_cycles", lat.tail, "cycles") ]
  in
  Printf.printf
    "workload %s  seed %d  repetitions %d plain + %d traced  (%.1f s)  page payload %d B\n"
    args.workload args.seed (List.length plain) (List.length traced) (elapsed ())
    !Sgx.Page_data.payload_bytes;
  Printf.printf "per repetition: ops/s %s | setup s %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (ops_per_s r)) plain))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" (setup_total r)) plain));
  Printf.printf "end-to-end (plain repetitions; host figures are medians):\n";
  List.iter
    (fun (name, v, unit) ->
      let note =
        match name with
        | "latency_p99_cycles" ->
          Printf.sprintf "p%d of n=%d (highest percentile <= p99 with >=10 samples beyond)"
            lat.tail_pct lat.samples
        | "latency_p50_cycles" -> Printf.sprintf "n=%d" lat.samples
        | _ -> ""
      in
      line name v unit note)
    end_to_end;
  line "ops_failed_share" fail_share "ratio"
    (if args.workload = "fleet" then "(shed + deadline-missed) / arrivals" else "");
  if args.trace && not (Spans.sums_exactly tr) then
    problems := "per-layer self times do not sum to the measured total" :: !problems;
  let per_layer = if args.trace then layer_metrics args ~plain ~traced tr else [] in
  if args.trace then begin
    Printf.printf "per-layer (traced repetitions; total %d ns, %d modeled cycles):\n"
      tr.total_ns tr.total_cycles;
    List.iter (fun (name, v, unit) -> line name v unit "") per_layer
  end;
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) problems;
  let correct = problems = [] && failed = 0 in
  print_result ~correct ~attempted ~failed (if args.trace then per_layer else end_to_end);
  if not correct then exit 1
