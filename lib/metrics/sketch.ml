(* Log-bucketed streaming quantile sketch.  See sketch.mli for the
   design rationale (mergeability is why this is not literal p²).

   Bucket map for a rounded non-negative sample [v]:
   - v in 0..63: exact unit bucket [v].
   - v >= 64: octave e = floor(log2 v) in 6..61, split into 32 linear
     sub-buckets of width 2^(e-5); index = 32 + (e-6)*32 + (v >> (e-5)).
   Highest index: 64 + 55*32 + 31 = 1855 (covers v up to max_int). *)

let n_buckets = 1856

(* The buckets live in [n_chunks] chunks of [chunk] counters, allocated
   on a chunk's first sample.  An absent chunk is a zero-length array,
   never a shared chunk of zeros: a chunk is written in place, and a
   shared one would be written through every sketch that holds it (as
   a Marshal round trip of two sketches makes one copy of it for both). *)
let chunk_bits = 5
let chunk = 1 lsl chunk_bits
let n_chunks = n_buckets / chunk

(* Exact side-channel sums live in a flat float array so the hot-path
   writes stay unboxed: [0] = sum, [1] = min, [2] = max. *)
type t = {
  chunks : int array array;  (* [||] for a chunk with no sample yet *)
  mutable n : int;
  fsums : float array;
}

let relative_error = 1.0 /. 32.0

let create () =
  { chunks = Array.make n_chunks [||];
    n = 0;
    fsums = [| 0.0; infinity; neg_infinity |] }

let count_at t idx =
  let c = t.chunks.(idx lsr chunk_bits) in
  if Array.length c = 0 then 0 else c.(idx land (chunk - 1))

let index v =
  if v < 64 then v
  else begin
    let e = ref 6 in
    while v asr (!e + 1) <> 0 do incr e done;
    32 + ((!e - 6) * 32) + (v asr (!e - 5))
  end

(* Upper bound of bucket [idx] — the largest integer that maps to it.
   Reporting the bound makes quantile estimates one-sided (>= exact). *)
let repr idx =
  if idx < 64 then idx
  else begin
    let k = idx - 64 in
    let e = 6 + (k / 32) and sub = k mod 32 in
    let w = 1 lsl (e - 5) in
    (1 lsl e) + ((sub + 1) * w) - 1
  end

let add_int t v =
  let v = if v < 0 then 0 else v in
  let idx = index v in
  let c = t.chunks.(idx lsr chunk_bits) in
  let c =
    if Array.length c > 0 then c
    else begin
      let c = Array.make chunk 0 in
      t.chunks.(idx lsr chunk_bits) <- c;
      c
    end
  in
  let j = idx land (chunk - 1) in
  c.(j) <- c.(j) + 1;
  t.n <- t.n + 1;
  let f = float_of_int v in
  t.fsums.(0) <- t.fsums.(0) +. f;
  if f < t.fsums.(1) then t.fsums.(1) <- f;
  if f > t.fsums.(2) then t.fsums.(2) <- f

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.fsums.(0) /. float_of_int t.n
let min_value t = if t.n = 0 then 0.0 else t.fsums.(1)
let max_value t = if t.n = 0 then 0.0 else t.fsums.(2)

let quantile t p =
  if t.n = 0 then invalid_arg "Sketch.quantile: empty";
  if Float.is_nan p || p < 0.0 || p > 100.0 then invalid_arg "Sketch.quantile: bad p";
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
  let rank = max 1 rank in
  let cum = ref 0 and idx = ref 0 in
  (try
     for i = 0 to n_buckets - 1 do
       cum := !cum + count_at t i;
       if !cum >= rank then begin idx := i; raise Exit end
     done;
     (* Unreachable: bucket counts sum to t.n >= rank. *)
     idx := n_buckets - 1
   with Exit -> ());
  float_of_int (repr !idx)

let summary t : Stats.summary =
  if t.n = 0 then
    { s_count = 0; s_mean = 0.0; s_p50 = 0.0; s_p95 = 0.0; s_p99 = 0.0;
      s_max = 0.0 }
  else
    { s_count = t.n; s_mean = mean t; s_p50 = quantile t 50.0;
      s_p95 = quantile t 95.0; s_p99 = quantile t 99.0;
      s_max = max_value t }

let merge_into ~into src =
  Array.iteri
    (fun k c ->
      if Array.length c > 0 then begin
        let d = into.chunks.(k) in
        if Array.length d = 0 then into.chunks.(k) <- Array.copy c
        else Array.iteri (fun j v -> d.(j) <- d.(j) + v) c
      end)
    src.chunks;
  into.n <- into.n + src.n;
  into.fsums.(0) <- into.fsums.(0) +. src.fsums.(0);
  if src.fsums.(1) < into.fsums.(1) then into.fsums.(1) <- src.fsums.(1);
  if src.fsums.(2) > into.fsums.(2) then into.fsums.(2) <- src.fsums.(2)

let footprint t acc =
  List.iter (Words.add_block acc Words.Latency) [ Obj.repr t; Obj.repr t.chunks; Obj.repr t.fsums ];
  Array.iter
    (fun c ->
      if Array.length c = 0 then Words.once acc ~cls:Words.Latency c ~words:(Words.block c)
      else Words.add_block acc Words.Latency c)
    t.chunks

let merged ts =
  let out = create () in
  List.iter (fun t -> merge_into ~into:out t) ts;
  out
