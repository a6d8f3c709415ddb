(* Unit and property tests for the metrics substrate: RNG,
   distributions, statistics, counters, cost model and virtual clock. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Metrics.Rng.create ~seed:1L and b = Metrics.Rng.create ~seed:1L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Metrics.Rng.next_int64 a)
      (Metrics.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Metrics.Rng.create ~seed:1L and b = Metrics.Rng.create ~seed:2L in
  checkb "different streams" false
    (Metrics.Rng.next_int64 a = Metrics.Rng.next_int64 b)

let test_rng_int_bounds () =
  let rng = Metrics.Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let v = Metrics.Rng.int rng 17 in
    checkb "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Metrics.Rng.create ~seed:4L in
  for _ = 1 to 1_000 do
    let v = Metrics.Rng.int_in rng ~lo:(-5) ~hi:5 in
    checkb "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_float_range () =
  let rng = Metrics.Rng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let f = Metrics.Rng.float rng in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_float_mean () =
  let rng = Metrics.Rng.create ~seed:6L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Metrics.Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_bool_balance () =
  let rng = Metrics.Rng.create ~seed:7L in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Metrics.Rng.bool rng then incr trues
  done;
  checkb "roughly balanced" true (!trues > 4_700 && !trues < 5_300)

let test_rng_split_independent () =
  let a = Metrics.Rng.create ~seed:8L in
  let b = Metrics.Rng.split a in
  checkb "split differs from parent" false
    (Metrics.Rng.next_int64 a = Metrics.Rng.next_int64 b)

let test_rng_copy () =
  let a = Metrics.Rng.create ~seed:9L in
  ignore (Metrics.Rng.next_int64 a);
  let b = Metrics.Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Metrics.Rng.next_int64 a)
    (Metrics.Rng.next_int64 b)

let test_rng_shuffle_permutation () =
  let rng = Metrics.Rng.create ~seed:10L in
  let a = Array.init 100 (fun i -> i) in
  Metrics.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  checkb "is a permutation" true (sorted = Array.init 100 (fun i -> i));
  checkb "actually shuffled" false (a = Array.init 100 (fun i -> i))

let test_rng_bytes () =
  let rng = Metrics.Rng.create ~seed:11L in
  let b = Metrics.Rng.bytes rng 256 in
  checki "length" 256 (Bytes.length b);
  (* Not all bytes equal. *)
  let first = Bytes.get b 0 in
  checkb "not constant" true
    (Bytes.exists (fun c -> c <> first) b)

(* --- Dist ------------------------------------------------------------- *)

let test_dist_uniform_bounds () =
  let rng = Metrics.Rng.create ~seed:20L in
  let d = Metrics.Dist.uniform ~n:100 in
  for _ = 1 to 5_000 do
    let v = Metrics.Dist.sample d rng in
    checkb "in range" true (v >= 0 && v < 100)
  done

let test_dist_uniform_coverage () =
  let rng = Metrics.Rng.create ~seed:21L in
  let d = Metrics.Dist.uniform ~n:10 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    counts.(Metrics.Dist.sample d rng) <- counts.(Metrics.Dist.sample d rng) + 1
  done;
  Array.iter (fun c -> checkb "each bin hit" true (c > 0)) counts

let test_dist_zipf_skew () =
  let rng = Metrics.Rng.create ~seed:22L in
  let d = Metrics.Dist.zipfian ~theta:0.99 ~n:1_000 () in
  let counts = Array.make 1_000 0 in
  for _ = 1 to 100_000 do
    let v = Metrics.Dist.sample d rng in
    counts.(v) <- counts.(v) + 1
  done;
  (* Head items dominate: item 0 far more popular than item 500. *)
  checkb "zipf head heavy" true (counts.(0) > 20 * (counts.(500) + 1));
  (* Top-10 items get a large fraction. *)
  let top10 = Array.fold_left ( + ) 0 (Array.sub counts 0 10) in
  checkb "top-10 share > 20%" true (top10 > 20_000)

let test_dist_scrambled_zipf_spread () =
  let rng = Metrics.Rng.create ~seed:23L in
  let d = Metrics.Dist.scrambled_zipfian ~n:1_000 () in
  let counts = Array.make 1_000 0 in
  for _ = 1 to 50_000 do
    let v = Metrics.Dist.sample d rng in
    counts.(v) <- counts.(v) + 1
  done;
  (* Scrambling moves the hottest key away from index 0 (with high
     probability) while keeping skew: some key dominates. *)
  let max_count = Array.fold_left max 0 counts in
  checkb "still skewed" true (max_count > 1_000)

let test_dist_hotspot () =
  let rng = Metrics.Rng.create ~seed:24L in
  let d = Metrics.Dist.hotspot ~n:1_000 ~hot_fraction:0.01 ~hot_probability:0.9 in
  let hot = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Metrics.Dist.sample d rng < 10 then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int n in
  checkb "~90% hot" true (abs_float (frac -. 0.9) < 0.02)

let test_dist_describe () =
  check Alcotest.string "uniform label" "uniform"
    (Metrics.Dist.describe (Metrics.Dist.uniform ~n:5));
  checkb "zipf label" true
    (String.length (Metrics.Dist.describe (Metrics.Dist.zipfian ~n:5 ())) > 0)

(* --- Stats ------------------------------------------------------------ *)

let test_stats_mean_stddev () =
  let s = Metrics.Stats.create () in
  List.iter (Metrics.Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checkb "mean" true (abs_float (Metrics.Stats.mean s -. 5.0) < 1e-9);
  checkb "stddev (sample)" true
    (abs_float (Metrics.Stats.stddev s -. 2.138) < 0.01);
  checki "count" 8 (Metrics.Stats.count s)

let test_stats_empty () =
  let s = Metrics.Stats.create () in
  checkb "mean 0" true (Metrics.Stats.mean s = 0.0);
  checkb "stddev 0" true (Metrics.Stats.stddev s = 0.0)

let test_stats_minmax () =
  let s = Metrics.Stats.create () in
  List.iter (Metrics.Stats.add s) [ 3.0; -1.0; 10.0 ];
  checkb "min" true (Metrics.Stats.min_value s = -1.0);
  checkb "max" true (Metrics.Stats.max_value s = 10.0)

let test_stats_percentile () =
  let s = Metrics.Stats.create () in
  for i = 1 to 100 do
    Metrics.Stats.add s (float_of_int i)
  done;
  checkb "p50" true (Metrics.Stats.percentile s 50.0 = 50.0);
  checkb "p99" true (Metrics.Stats.percentile s 99.0 = 99.0);
  checkb "p100" true (Metrics.Stats.percentile s 100.0 = 100.0)

let test_stats_summary () =
  let s = Metrics.Stats.create () in
  for i = 1 to 100 do
    Metrics.Stats.add s (float_of_int i)
  done;
  let m = Metrics.Stats.summary s in
  checki "count" 100 m.Metrics.Stats.s_count;
  checkb "mean" true (abs_float (m.Metrics.Stats.s_mean -. 50.5) < 1e-9);
  checkb "p50" true (m.Metrics.Stats.s_p50 = 50.0);
  checkb "p95" true (m.Metrics.Stats.s_p95 = 95.0);
  checkb "p99" true (m.Metrics.Stats.s_p99 = 99.0);
  checkb "max" true (m.Metrics.Stats.s_max = 100.0);
  checkb "agrees with percentile" true
    (m.Metrics.Stats.s_p95 = Metrics.Stats.percentile s 95.0)

let test_stats_summary_empty () =
  let m = Metrics.Stats.summary (Metrics.Stats.create ()) in
  checki "count" 0 m.Metrics.Stats.s_count;
  checkb "all zero" true
    (m.Metrics.Stats.s_mean = 0.0 && m.Metrics.Stats.s_p50 = 0.0
    && m.Metrics.Stats.s_p95 = 0.0 && m.Metrics.Stats.s_p99 = 0.0
    && m.Metrics.Stats.s_max = 0.0)

let test_stats_summary_single () =
  let s = Metrics.Stats.create () in
  Metrics.Stats.add s 7.5;
  let m = Metrics.Stats.summary s in
  checki "count" 1 m.Metrics.Stats.s_count;
  checkb "every percentile is the sample" true
    (m.Metrics.Stats.s_mean = 7.5 && m.Metrics.Stats.s_p50 = 7.5
    && m.Metrics.Stats.s_p95 = 7.5 && m.Metrics.Stats.s_p99 = 7.5
    && m.Metrics.Stats.s_max = 7.5)

let test_stats_geomean () =
  checkb "geomean" true
    (abs_float (Metrics.Stats.geomean [ 1.0; 4.0 ] -. 2.0) < 1e-9);
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.geomean: empty")
    (fun () -> ignore (Metrics.Stats.geomean []))

let test_stats_histogram () =
  let h = Metrics.Stats.Histogram.create ~bucket_width:10.0 in
  List.iter (Metrics.Stats.Histogram.add h) [ 1.0; 5.0; 15.0; 25.0; 25.5 ];
  let buckets = Metrics.Stats.Histogram.buckets h in
  checki "bucket count" 3 (List.length buckets);
  checkb "first bucket has 2" true (List.assoc 0.0 buckets = 2);
  checkb "third bucket has 2" true (List.assoc 20.0 buckets = 2)

(* --- Counters & Clock ------------------------------------------------- *)

let test_counters_basic () =
  let c = Metrics.Counters.create () in
  Metrics.Counters.incr c "a";
  Metrics.Counters.incr c "a";
  Metrics.Counters.add c "b" 5;
  checki "a" 2 (Metrics.Counters.get c "a");
  checki "b" 5 (Metrics.Counters.get c "b");
  checki "missing" 0 (Metrics.Counters.get c "zzz")

let test_counters_snapshot_reset () =
  let c = Metrics.Counters.create () in
  Metrics.Counters.add c "x" 3;
  Metrics.Counters.add c "y" 1;
  checki "snapshot size" 2 (List.length (Metrics.Counters.snapshot c));
  Metrics.Counters.reset_one c "x";
  checki "x reset" 0 (Metrics.Counters.get c "x");
  Metrics.Counters.reset c;
  checki "all reset" 0 (List.length (Metrics.Counters.snapshot c))

let test_counters_cell_identity () =
  let c = Metrics.Counters.create () in
  let a1 = Metrics.Counters.cell c "a" in
  let a2 = Metrics.Counters.cell c "a" in
  checkb "same name, same cell" true (a1 == a2);
  check Alcotest.string "cell name" "a" (Metrics.Counters.name a1);
  Metrics.Counters.cell_incr a1;
  Metrics.Counters.incr c "a";
  Metrics.Counters.cell_add a2 3;
  checki "cell and string APIs alias" 5 (Metrics.Counters.get c "a");
  checki "cell_get sees string incr" 5 (Metrics.Counters.cell_get a1)

let test_counters_cells_survive_reset () =
  let c = Metrics.Counters.create () in
  let x = Metrics.Counters.cell c "x" in
  let y = Metrics.Counters.cell c "y" in
  Metrics.Counters.cell_add x 7;
  Metrics.Counters.cell_add y 2;
  Metrics.Counters.reset_one c "x";
  checki "reset_one zeroes the cell" 0 (Metrics.Counters.cell_get x);
  checki "other cell untouched" 2 (Metrics.Counters.cell_get y);
  Metrics.Counters.reset c;
  checki "reset zeroes all cells" 0 (Metrics.Counters.cell_get y);
  (* The handle keeps counting into the same (interned) counter. *)
  Metrics.Counters.cell_incr x;
  checki "handle valid after reset" 1 (Metrics.Counters.get c "x");
  checkb "still the same cell" true (x == Metrics.Counters.cell c "x")

let test_counters_snapshot_sees_cells () =
  let c = Metrics.Counters.create () in
  let m = Metrics.Counters.cell c "m" in
  let _zero = Metrics.Counters.cell c "never-bumped" in
  Metrics.Counters.cell_add m 4;
  Metrics.Counters.incr c "n";
  check
    Alcotest.(list (pair string int))
    "snapshot interleaves cell and string counters"
    [ ("m", 4); ("n", 1) ]
    (Metrics.Counters.snapshot c)

let test_clock_charge () =
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  Metrics.Clock.charge clock 100;
  Metrics.Clock.charge clock 50;
  checki "elapsed" 150 (Metrics.Clock.now clock);
  let span = Metrics.Clock.start_span clock in
  Metrics.Clock.charge clock 25;
  checki "span" 25 (Metrics.Clock.span_cycles clock span);
  Metrics.Clock.reset clock;
  checki "reset" 0 (Metrics.Clock.now clock)

let test_clock_seconds () =
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  Metrics.Clock.charge clock 3_900_000_000;
  checkb "one second at 3.9GHz" true
    (abs_float (Metrics.Clock.elapsed_seconds clock -. 1.0) < 1e-9)

let test_cost_model_derived () =
  let m = Metrics.Cost_model.default in
  checki "fault roundtrip" (m.aex + m.eresume + m.eenter + m.eexit)
    (Metrics.Cost_model.fault_roundtrip m);
  checki "hw page crypto" 4096 (Metrics.Cost_model.hw_page_crypto m);
  checkb "sw crypto positive" true (Metrics.Cost_model.sw_page_crypto m > 0)

(* --- quantile sketch --------------------------------------------------- *)

(* The sketch's one-sided guarantee, with a +1 absolute slack for the
   integer rounding at bucket edges:
   exact <= estimate <= exact * (1 + relative_error) + 1. *)
let sketch_bound_ok ~exact ~est =
  est >= exact -. 1e-9
  && est <= (exact *. (1.0 +. Metrics.Sketch.relative_error)) +. 1.0 +. 1e-9

let check_sketch_vs_exact ~what values =
  let sk = Metrics.Sketch.create () in
  let st = Metrics.Stats.create () in
  List.iter
    (fun v ->
      Metrics.Sketch.add_int sk v;
      Metrics.Stats.add st (float_of_int v))
    values;
  List.iter
    (fun p ->
      let exact = Metrics.Stats.percentile st p in
      let est = Metrics.Sketch.quantile sk p in
      if not (sketch_bound_ok ~exact ~est) then
        Alcotest.failf "%s: p%.0f estimate %.0f outside [%.0f, %.2f]" what p
          est exact
          ((exact *. (1.0 +. Metrics.Sketch.relative_error)) +. 1.0))
    [ 50.0; 95.0; 99.0 ]

let test_sketch_uniform () =
  let rng = Metrics.Rng.create ~seed:7L in
  check_sketch_vs_exact ~what:"uniform"
    (List.init 5_000 (fun _ -> Metrics.Rng.int rng 1_000_000))

let test_sketch_heavy_tail () =
  (* Pareto-ish: invert a uniform to get a long tail. *)
  let rng = Metrics.Rng.create ~seed:11L in
  check_sketch_vs_exact ~what:"heavy tail"
    (List.init 5_000 (fun _ ->
         let u = 1.0 -. Metrics.Rng.float rng in
         int_of_float (20.0 *. (u ** (-1.5)))))

let test_sketch_constant () =
  check_sketch_vs_exact ~what:"constant" (List.init 500 (fun _ -> 123_457);)

let test_sketch_small_values_exact () =
  (* 0..63 live in unit buckets: every quantile is exact. *)
  let sk = Metrics.Sketch.create () in
  let st = Metrics.Stats.create () in
  let rng = Metrics.Rng.create ~seed:3L in
  for _ = 1 to 2_000 do
    let v = Metrics.Rng.int rng 64 in
    Metrics.Sketch.add_int sk v;
    Metrics.Stats.add st (float_of_int v)
  done;
  List.iter
    (fun p ->
      checkb
        (Printf.sprintf "p%.0f exact below 64" p)
        true
        (Metrics.Sketch.quantile sk p = Metrics.Stats.percentile st p))
    [ 10.0; 50.0; 90.0; 99.0 ]

let test_sketch_side_stats_exact () =
  let sk = Metrics.Sketch.create () in
  let st = Metrics.Stats.create () in
  List.iter
    (fun v ->
      Metrics.Sketch.add_int sk v;
      Metrics.Stats.add st (float_of_int v))
    [ 5; 70_000; 123; 9_999_999; 0; 64 ];
  checki "count" (Metrics.Stats.count st) (Metrics.Sketch.count sk);
  checkb "mean exact" true (Metrics.Sketch.mean sk = Metrics.Stats.mean st);
  checkb "min exact" true
    (Metrics.Sketch.min_value sk = Metrics.Stats.min_value st);
  checkb "max exact" true
    (Metrics.Sketch.max_value sk = Metrics.Stats.max_value st);
  let s = Metrics.Sketch.summary sk in
  checkb "summary max is exact" true
    (s.Metrics.Stats.s_max = Metrics.Stats.max_value st)

let test_sketch_empty () =
  let sk = Metrics.Sketch.create () in
  let s = Metrics.Sketch.summary sk in
  checki "empty count" 0 s.Metrics.Stats.s_count;
  checkb "empty summary zero" true
    (s.Metrics.Stats.s_p99 = 0.0 && s.Metrics.Stats.s_max = 0.0);
  checkb "quantile raises" true
    (match Metrics.Sketch.quantile sk 50.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sketch_merge_is_pooled () =
  (* Merging shard sketches must equal sketching the pooled stream —
     the property the fleet latency roll-up rests on. *)
  let rng = Metrics.Rng.create ~seed:21L in
  let shard1 = List.init 2_000 (fun _ -> Metrics.Rng.int rng 500_000) in
  let shard2 = List.init 700 (fun _ -> 1_000_000 + Metrics.Rng.int rng 500) in
  let sk_of vs =
    let sk = Metrics.Sketch.create () in
    List.iter (Metrics.Sketch.add_int sk) vs;
    sk
  in
  let pooled = sk_of (shard1 @ shard2) in
  let m12 = Metrics.Sketch.merged [ sk_of shard1; sk_of shard2 ] in
  let m21 = Metrics.Sketch.merged [ sk_of shard2; sk_of shard1 ] in
  List.iter
    (fun p ->
      let e = Metrics.Sketch.quantile pooled p in
      checkb "merge = pooled" true (Metrics.Sketch.quantile m12 p = e);
      checkb "merge commutes" true (Metrics.Sketch.quantile m21 p = e))
    [ 25.0; 50.0; 95.0; 99.0; 100.0 ];
  checki "merged count" (Metrics.Sketch.count pooled)
    (Metrics.Sketch.count m12)

(* The reference layout: all 1,856 bucket counters in one dense array,
   with the same bucket map, nearest-rank walk and side sums as
   [Metrics.Sketch].  The chunked sketch must answer every query as
   this model does. *)
module Dense = struct
  type t = { buckets : int array; mutable n : int; fsums : float array }

  let create () =
    { buckets = Array.make 1856 0; n = 0; fsums = [| 0.0; infinity; neg_infinity |] }

  let index v =
    if v < 64 then v
    else begin
      let e = ref 6 in
      while v asr (!e + 1) <> 0 do incr e done;
      32 + ((!e - 6) * 32) + (v asr (!e - 5))
    end

  let repr idx =
    if idx < 64 then idx
    else
      let k = idx - 64 in
      let e = 6 + (k / 32) and sub = k mod 32 in
      (1 lsl e) + ((sub + 1) * (1 lsl (e - 5))) - 1

  let add_int t v =
    let v = max 0 v in
    t.buckets.(index v) <- t.buckets.(index v) + 1;
    t.n <- t.n + 1;
    let f = float_of_int v in
    t.fsums.(0) <- t.fsums.(0) +. f;
    if f < t.fsums.(1) then t.fsums.(1) <- f;
    if f > t.fsums.(2) then t.fsums.(2) <- f

  let mean t = if t.n = 0 then 0.0 else t.fsums.(0) /. float_of_int t.n
  let min_value t = if t.n = 0 then 0.0 else t.fsums.(1)
  let max_value t = if t.n = 0 then 0.0 else t.fsums.(2)

  let quantile t p =
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.n))) in
    let rec walk i cum =
      let cum = cum + t.buckets.(i) in
      if cum >= rank then float_of_int (repr i) else walk (i + 1) cum
    in
    walk 0 0

  let merged ts =
    let out = create () in
    List.iter
      (fun src ->
        Array.iteri (fun i c -> out.buckets.(i) <- out.buckets.(i) + c) src.buckets;
        out.n <- out.n + src.n;
        out.fsums.(0) <- out.fsums.(0) +. src.fsums.(0);
        if src.fsums.(1) < out.fsums.(1) then out.fsums.(1) <- src.fsums.(1);
        if src.fsums.(2) > out.fsums.(2) then out.fsums.(2) <- src.fsums.(2))
      ts;
    out
end

(* Every query of the chunked sketch equals the dense model's. *)
let agrees_with_dense sk (d : Dense.t) =
  Metrics.Sketch.count sk = d.Dense.n
  && Metrics.Sketch.mean sk = Dense.mean d
  && Metrics.Sketch.min_value sk = Dense.min_value d
  && Metrics.Sketch.max_value sk = Dense.max_value d
  && List.for_all
       (fun p ->
         let p = float_of_int p in
         if d.Dense.n = 0 then
           match Metrics.Sketch.quantile sk p with
           | exception Invalid_argument _ -> true
           | _ -> false
         else Metrics.Sketch.quantile sk p = Dense.quantile d p)
       (List.init 101 Fun.id)

(* Two sketches marshalled together and restored share nothing: adding
   to one leaves the other as it was. *)
let test_sketch_marshal_independent () =
  let a = Metrics.Sketch.create () and b = Metrics.Sketch.create () in
  List.iter (Metrics.Sketch.add_int a) [ 1; 2; 3; 7 ];
  List.iter (Metrics.Sketch.add_int b) [ 5; 101; 101 ];
  let a', b' =
    (Marshal.from_string (Marshal.to_string (a, b) []) 0
      : Metrics.Sketch.t * Metrics.Sketch.t)
  in
  for _ = 1 to 5_000 do Metrics.Sketch.add_int a' 5_000 done;
  Metrics.Sketch.merge_into ~into:a' b';
  Metrics.Sketch.add_int a' 40;
  checki "count unchanged" (Metrics.Sketch.count b) (Metrics.Sketch.count b');
  List.iter
    (fun p ->
      let p = float_of_int p in
      if Metrics.Sketch.quantile b' p <> Metrics.Sketch.quantile b p then
        Alcotest.failf "restored sketch p%.0f reads %.0f, not %.0f" p
          (Metrics.Sketch.quantile b' p) (Metrics.Sketch.quantile b p))
    (List.init 101 Fun.id)

(* Latencies between 10^4 and 10^6 cycles span seven octaves, so the
   sketch holds seven chunks; the ledger's count of it is exact. *)
let test_sketch_words_follow_occupied_octaves () =
  let sk = Metrics.Sketch.create () in
  for i = 0 to 9_999 do Metrics.Sketch.add_int sk (10_000 + (i * 99)) done;
  let words = Obj.reachable_words (Obj.repr sk) in
  if words > 400 then Alcotest.failf "10k samples hold %d words" words;
  let acc = Metrics.Words.create () in
  Metrics.Sketch.footprint sk acc;
  checki "ledger words = reachable words" words (Metrics.Words.words acc Metrics.Words.Latency)

let test_sketch_quantile_rejects_nan () =
  let sk = Metrics.Sketch.create () in
  List.iter (Metrics.Sketch.add_int sk) [ 100; 5_000 ];
  Helpers.check_invalid_arg ~naming:"bad p" (fun () -> Metrics.Sketch.quantile sk Float.nan)

(* --- QCheck properties ------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"rng int always in bounds" ~count:500
        QCheck2.Gen.(pair (int_range 1 10_000) int)
        (fun (bound, seed) ->
          let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
          let v = Metrics.Rng.int rng bound in
          v >= 0 && v < bound);
      QCheck2.Test.make ~name:"dist samples in range" ~count:200
        QCheck2.Gen.(pair (int_range 2 5_000) int)
        (fun (n, seed) ->
          let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
          let d = Metrics.Dist.zipfian ~n () in
          let v = Metrics.Dist.sample d rng in
          v >= 0 && v < n);
      QCheck2.Test.make ~name:"stats mean within [min,max]" ~count:300
        QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.0))
        (fun xs ->
          let s = Metrics.Stats.create () in
          List.iter (Metrics.Stats.add s) xs;
          Metrics.Stats.mean s >= Metrics.Stats.min_value s -. 1e-9
          && Metrics.Stats.mean s <= Metrics.Stats.max_value s +. 1e-9);
      QCheck2.Test.make ~name:"percentile monotone" ~count:200
        QCheck2.Gen.(list_size (int_range 2 80) (float_bound_inclusive 100.0))
        (fun xs ->
          let s = Metrics.Stats.create () in
          List.iter (Metrics.Stats.add s) xs;
          Metrics.Stats.percentile s 25.0 <= Metrics.Stats.percentile s 75.0);
      QCheck2.Test.make
        ~name:"sketch quantiles within stated bound of exact percentiles"
        ~count:200
        QCheck2.Gen.(list_size (int_range 1 400) (int_range 0 50_000_000))
        (fun vs ->
          let sk = Metrics.Sketch.create () in
          let st = Metrics.Stats.create () in
          List.iter
            (fun v ->
              Metrics.Sketch.add_int sk v;
              Metrics.Stats.add st (float_of_int v))
            vs;
          List.for_all
            (fun p ->
              sketch_bound_ok
                ~exact:(Metrics.Stats.percentile st p)
                ~est:(Metrics.Sketch.quantile sk p))
            [ 50.0; 95.0; 99.0 ]);
      QCheck2.Test.make ~name:"sketch merge commutative and pooled"
        ~count:150
        QCheck2.Gen.(
          pair
            (list_size (int_range 1 120) (int_range 0 5_000_000))
            (list_size (int_range 1 120) (int_range 0 5_000_000)))
        (fun (xs, ys) ->
          let sk_of vs =
            let sk = Metrics.Sketch.create () in
            List.iter (Metrics.Sketch.add_int sk) vs;
            sk
          in
          let pooled = sk_of (xs @ ys) in
          let m12 = Metrics.Sketch.merged [ sk_of xs; sk_of ys ] in
          let m21 = Metrics.Sketch.merged [ sk_of ys; sk_of xs ] in
          List.for_all
            (fun p ->
              let e = Metrics.Sketch.quantile pooled p in
              Metrics.Sketch.quantile m12 p = e
              && Metrics.Sketch.quantile m21 p = e)
            [ 50.0; 95.0; 99.0 ]);
    ]

(* Streams of small exact values, values up to 2^61 and runs of
   duplicates (possibly none), each run sent to a random one of up to
   four shards. *)
let dense_model_case =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sketch agrees with the dense model" ~count:200
       QCheck2.Gen.(
         pair
           (list_size (int_range 0 200)
              (triple
                 (oneof
                    [ int_range 0 63; int_range 64 1_000_000; int_range 0 (1 lsl 61) ])
                 (int_range 1 4) (int_range 0 3)))
           (int_range 1 4))
       (fun (runs, shards) ->
         let sks = Array.init shards (fun _ -> Metrics.Sketch.create ()) in
         let ds = Array.init shards (fun _ -> Dense.create ()) in
         List.iter
           (fun (v, k, s) ->
             for _ = 1 to k do
               Metrics.Sketch.add_int sks.(s mod shards) v;
               Dense.add_int ds.(s mod shards) v
             done)
           runs;
         Array.for_all2 agrees_with_dense sks ds
         && agrees_with_dense
              (Metrics.Sketch.merged (Array.to_list sks))
              (Dense.merged (Array.to_list ds))))

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int_in bounds", `Quick, test_rng_int_in);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng float mean", `Quick, test_rng_float_mean);
    ("rng bool balance", `Quick, test_rng_bool_balance);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("rng bytes", `Quick, test_rng_bytes);
    ("dist uniform bounds", `Quick, test_dist_uniform_bounds);
    ("dist uniform coverage", `Quick, test_dist_uniform_coverage);
    ("dist zipf skew", `Quick, test_dist_zipf_skew);
    ("dist scrambled zipf spread", `Quick, test_dist_scrambled_zipf_spread);
    ("dist hotspot", `Quick, test_dist_hotspot);
    ("dist describe", `Quick, test_dist_describe);
    ("stats mean/stddev", `Quick, test_stats_mean_stddev);
    ("stats empty", `Quick, test_stats_empty);
    ("stats min/max", `Quick, test_stats_minmax);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats summary", `Quick, test_stats_summary);
    ("stats summary empty", `Quick, test_stats_summary_empty);
    ("stats summary single sample", `Quick, test_stats_summary_single);
    ("stats geomean", `Quick, test_stats_geomean);
    ("stats histogram", `Quick, test_stats_histogram);
    ("counters basic", `Quick, test_counters_basic);
    ("counters snapshot/reset", `Quick, test_counters_snapshot_reset);
    ("counters cell identity", `Quick, test_counters_cell_identity);
    ("counters cells survive reset", `Quick, test_counters_cells_survive_reset);
    ("counters snapshot sees cells", `Quick, test_counters_snapshot_sees_cells);
    ("clock charge/span/reset", `Quick, test_clock_charge);
    ("clock seconds", `Quick, test_clock_seconds);
    ("cost model derived", `Quick, test_cost_model_derived);
    ("sketch vs exact: uniform", `Quick, test_sketch_uniform);
    ("sketch vs exact: heavy tail", `Quick, test_sketch_heavy_tail);
    ("sketch vs exact: constant", `Quick, test_sketch_constant);
    ("sketch exact below 64", `Quick, test_sketch_small_values_exact);
    ("sketch side stats exact", `Quick, test_sketch_side_stats_exact);
    ("sketch empty", `Quick, test_sketch_empty);
    ("sketch merge is pooled", `Quick, test_sketch_merge_is_pooled);
  ]
  @ qcheck_cases
  @ [
      dense_model_case;
      ("sketch marshal round trip shares no chunk", `Quick, test_sketch_marshal_independent);
      ("sketch words follow occupied octaves", `Quick, test_sketch_words_follow_occupied_octaves);
      ("sketch quantile rejects NaN", `Quick, test_sketch_quantile_rejects_nan);
    ]
