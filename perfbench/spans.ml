(* Span recorder for the traced run, and the percentile rule.

   A span is one call into a layer's public seam, timed from the
   benchmark's side in host nanoseconds and in modeled cycles.  A
   layer's self time is its spans' durations minus the part of each
   span that its child spans cover.  The seams nest strictly (a child
   opens after its parent and closes before it, and siblings follow one
   another), so the covered part is the sum of the children's durations;
   the recorder keeps that sum on an open-span stack and folds every
   span into per-layer totals as it closes.  Self times of all layers
   therefore add up exactly to the root spans' total, on both clocks.
   test_spans.ml checks the fold against the interval-union definition.

   Durations are kept, for quantiles, only for the layers whose spans
   are few enough to store: [kept]. *)

(* The layers, named after the libraries (see README.md). *)
let layer_names =
  [| "harness"; "workloads"; "sgx"; "autarky"; "sim_os"; "oram"; "serve" |]

let harness = 0
let workloads = 1
let sgx = 2
let autarky = 3
let sim_os = 4
let oram = 5
let serve = 6
let n_layers = Array.length layer_names

(* A tag packs the layer with a sub-kind (an Os_iface function, a
   tenant class) below 16. *)
let tag ?(sub = 0) layer = (sub * 16) + layer
let layer_of_tag tag = tag land 15
let sub_of_tag tag = tag lsr 4
let n_tags = 256

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable on : bool;  (* recording; toggled only with no span open *)
  mutable ns : unit -> int;  (* host clock *)
  mutable cycles : unit -> int;  (* modeled clock *)
  (* the open-span stack *)
  mutable depth : int;
  mutable st_tag : int array;
  mutable st_t0 : int array;
  mutable st_c0 : int array;
  mutable st_kid_ns : int array;  (* summed durations of closed children *)
  mutable st_kid_c : int array;
  (* folded results *)
  self_ns : int array;  (* per layer *)
  self_cycles : int array;
  mutable total_ns : int;  (* summed root-span durations *)
  mutable total_cycles : int;
  calls : int array;  (* per tag *)
  span_ns : int array;  (* per tag, summed durations, children included *)
  keep : bool array;  (* per layer: store each duration *)
  durations : int array array;  (* per layer, first [n_durations] used *)
  n_durations : int array;
}

(* Ops or requests, faults, and kernel calls: at most a few per op.
   The VM-access and ORAM spans (17 per op) are folded but not kept. *)
let kept = [ workloads; autarky; sim_os ]

let create () =
  {
    on = false;
    ns = now_ns;
    cycles = (fun () -> 0);
    depth = 0;
    st_tag = Array.make 16 0;
    st_t0 = Array.make 16 0;
    st_c0 = Array.make 16 0;
    st_kid_ns = Array.make 16 0;
    st_kid_c = Array.make 16 0;
    self_ns = Array.make n_layers 0;
    self_cycles = Array.make n_layers 0;
    total_ns = 0;
    total_cycles = 0;
    calls = Array.make n_tags 0;
    span_ns = Array.make n_tags 0;
    keep = Array.init n_layers (fun l -> List.mem l kept);
    durations = Array.init n_layers (fun l -> Array.make (if List.mem l kept then 1024 else 0) 0);
    n_durations = Array.make n_layers 0;
  }

let set_clocks ?ns t ~cycles =
  Option.iter (fun f -> t.ns <- f) ns;
  t.cycles <- cycles

(* Recording accumulates over every [start]..[stop] window of [t]; seams
   outside a window (set-up, checks) record nothing. *)
let start t = t.on <- true

let stop t =
  if t.depth <> 0 then invalid_arg "Spans.stop: a span is still open";
  t.on <- false

let recording t = t.on

let grow a =
  let b = Array.make (2 * max 1 (Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let enter t tag =
  if t.on then begin
    let d = t.depth in
    if d = Array.length t.st_tag then begin
      t.st_tag <- grow t.st_tag;
      t.st_t0 <- grow t.st_t0;
      t.st_c0 <- grow t.st_c0;
      t.st_kid_ns <- grow t.st_kid_ns;
      t.st_kid_c <- grow t.st_kid_c
    end;
    t.st_tag.(d) <- tag;
    t.st_kid_ns.(d) <- 0;
    t.st_kid_c.(d) <- 0;
    t.st_c0.(d) <- t.cycles ();
    t.st_t0.(d) <- t.ns ();
    t.depth <- d + 1
  end

let leave t =
  if t.on then begin
    let t1 = t.ns () in
    let c1 = t.cycles () in
    let d = t.depth - 1 in
    t.depth <- d;
    let tag = t.st_tag.(d) in
    let l = layer_of_tag tag in
    let dur = t1 - t.st_t0.(d) and dur_c = c1 - t.st_c0.(d) in
    t.self_ns.(l) <- t.self_ns.(l) + dur - t.st_kid_ns.(d);
    t.self_cycles.(l) <- t.self_cycles.(l) + dur_c - t.st_kid_c.(d);
    if d > 0 then begin
      t.st_kid_ns.(d - 1) <- t.st_kid_ns.(d - 1) + dur;
      t.st_kid_c.(d - 1) <- t.st_kid_c.(d - 1) + dur_c
    end
    else begin
      t.total_ns <- t.total_ns + dur;
      t.total_cycles <- t.total_cycles + dur_c
    end;
    t.calls.(tag) <- t.calls.(tag) + 1;
    t.span_ns.(tag) <- t.span_ns.(tag) + dur;
    if t.keep.(l) then begin
      let n = t.n_durations.(l) in
      if n = Array.length t.durations.(l) then t.durations.(l) <- grow t.durations.(l);
      t.durations.(l).(n) <- dur;
      t.n_durations.(l) <- n + 1
    end
  end

(* [wrap t tag f x] runs [f x] inside a span; the span closes on the
   exceptional path too (an enclave termination unwinds through every
   seam). *)
let wrap t tag f x =
  enter t tag;
  match f x with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

let wrap2 t tag f x y =
  enter t tag;
  match f x y with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

(* The exactness contract of the split. *)
let sums_exactly t =
  Array.fold_left ( + ) 0 t.self_ns = t.total_ns
  && Array.fold_left ( + ) 0 t.self_cycles = t.total_cycles

(* Calls and summed span time of every tag matching [pred]. *)
let calls t pred =
  let n = ref 0 in
  Array.iteri (fun tag c -> if pred tag then n := !n + c) t.calls;
  !n

let span_ns t pred =
  let n = ref 0 in
  Array.iteri (fun tag c -> if pred tag then n := !n + c) t.span_ns;
  !n

(* Sorted durations of one kept layer. *)
let durations t layer =
  let d = Array.sub t.durations.(layer) 0 t.n_durations.(layer) in
  Array.sort compare d;
  d

(* --- percentiles ---------------------------------------------------- *)

(* Nearest rank: the 1-based rank ceil(p/100 * n). *)
let rank ~p n = max 1 ((p * n + 99) / 100)

(* The highest integer percentile, at most [p], that leaves at least ten
   samples beyond its nearest rank; 0 (the minimum) when fewer than ten
   samples exist at all.  A tail figure is reported at this percentile,
   together with the sample count. *)
let tail_percentile ~p n =
  let rec go q = if q <= 0 then 0 else if n - rank ~p:q n >= 10 then q else go (q - 1) in
  go p

(* [quantile sorted p] on an ascending int array; 0 when empty. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank ~p n - 1)

(* (percentile used, value) for a requested tail percentile. *)
let tail sorted ~p =
  let q = tail_percentile ~p (Array.length sorted) in
  (q, quantile sorted q)
