(* Tests of the benchmark's own arithmetic: the recorder's self time is
   a span minus the union of its children's intervals, per-layer self
   times sum exactly to the measured total on both clocks, and the tail
   percentile keeps ten samples beyond it. *)

(* Reference definition: length of [lo, hi) covered by the union of
   [intervals], each clipped to [lo, hi). *)
let union_within ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur_a cur_b = function
    | [] -> acc + (cur_b - cur_a)
    | (a, b) :: rest ->
      if a <= cur_b then go acc cur_a (max cur_b b) rest
      else go (acc + (cur_b - cur_a)) a b rest
  in
  match iv with [] -> 0 | (a, b) :: rest -> go 0 a b rest

(* A span tree: layer, clock advance before entry, children, clock
   advance before exit. *)
type tree = Node of int * int * tree list * int

(* Drive [trees] through a recorder on fake clocks (modeled = 3 x host,
   so a mix-up between the two shows), and compute the reference
   per-layer self times (span minus the union of its children's
   intervals) and total from the same intervals. *)
let record trees =
  let now = ref 0 in
  let tr = Spans.create () in
  Spans.set_clocks tr ~ns:(fun () -> !now) ~cycles:(fun () -> 3 * !now);
  Spans.start tr;
  let self = Array.make Spans.n_layers 0 and total = ref 0 in
  let rec go (Node (layer, before, kids, after)) =
    now := !now + before;
    let t0 = !now in
    Spans.enter tr (Spans.tag layer);
    let spans = List.map go kids in
    now := !now + after;
    Spans.leave tr;
    let t1 = !now in
    self.(layer) <- self.(layer) + (t1 - t0) - union_within ~lo:t0 ~hi:t1 spans;
    (t0, t1)
  in
  List.iter
    (fun t ->
      let a, b = go t in
      total := !total + (b - a))
    trees;
  Spans.stop tr;
  (tr, self, !total)

let check_int = Alcotest.(check int)
let leaf layer before after = Node (layer, before, [], after)

let fixed_tree () =
  let fault =
    Node (Spans.autarky, 5, [ leaf Spans.sim_os 5 170; leaf Spans.sim_os 10 70 ], 10)
  in
  let op =
    Node (Spans.workloads, 10, [ Node (Spans.sgx, 10, [ fault ], 10); leaf Spans.sgx 10 10 ], 580)
  in
  let tr, self, total =
    record [ Node (Spans.harness, 0, [ op ], 100); leaf Spans.harness 1_000 500 ]
  in
  check_int "total is the summed roots" 1_500 total;
  check_int "recorder total" total tr.total_ns;
  check_int "sim_os self" 240 tr.self_ns.(Spans.sim_os);
  check_int "autarky: 265 minus its two children" 25 tr.self_ns.(Spans.autarky);
  Array.iteri (fun l v -> check_int Spans.layer_names.(l) v tr.self_ns.(l)) self;
  check_int "modeled clock folded separately" (3 * total) tr.total_cycles;
  Alcotest.(check bool) "self times sum exactly" true (Spans.sums_exactly tr);
  check_int "two sim_os calls" 2 (Spans.calls tr (fun t -> Spans.layer_of_tag t = Spans.sim_os))

let union_rule () =
  check_int "overlapping children count once" 7
    (union_within ~lo:0 ~hi:10 [ (5, 8); (1, 4); (2, 3); (7, 9) ]);
  check_int "clipped to the parent" 4 (union_within ~lo:10 ~hi:20 [ (0, 12); (18, 30) ])

let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 40)
    @@ fix (fun self n ->
           let* layer = int_bound (Spans.n_layers - 1) in
           let* before = int_bound 5 in
           let* after = int_bound 5 in
           let* kids = if n <= 1 then return [] else list_size (int_bound 3) (self (n / 3)) in
           return (Node (layer, before, kids, after))))

let random_trees =
  QCheck.Test.make
    ~name:"recorder self time = span minus union of children; layers sum to the total"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) gen_tree))
    (fun trees ->
      let tr, self, total = record trees in
      tr.total_ns = total
      && tr.total_cycles = 3 * total
      && Array.for_all2 ( = ) self tr.self_ns
      && Array.for_all2 (fun a b -> 3 * a = b) self tr.self_cycles
      && Spans.sums_exactly tr)

let closes_on_raise () =
  let tr = Spans.create () in
  Spans.start tr;
  (try Spans.wrap tr (Spans.tag Spans.autarky) (fun () -> raise Exit) () with Exit -> ());
  Spans.stop tr;
  check_int "span counted" 1 (Spans.calls tr (fun t -> Spans.layer_of_tag t = Spans.autarky));
  Alcotest.(check bool) "sums exactly" true (Spans.sums_exactly tr)

let tail_rule () =
  check_int "n=1000 keeps p99" 99 (Spans.tail_percentile ~p:99 1_000);
  check_int "n=999 falls back to p98" 98 (Spans.tail_percentile ~p:99 999);
  check_int "n=100 gives p90" 90 (Spans.tail_percentile ~p:99 100);
  check_int "n=10 gives the minimum" 0 (Spans.tail_percentile ~p:99 10);
  check_int "never above the request" 50 (Spans.tail_percentile ~p:50 100_000);
  let sorted = Array.init 100 (fun i -> i + 1) in
  let q, v = Spans.tail sorted ~p:99 in
  check_int "percentile used" 90 q;
  check_int "nearest-rank value" 90 v;
  check_int "ten samples beyond" 10
    (List.length (List.filter (fun x -> x > v) (Array.to_list sorted)));
  check_int "median" 50 (Spans.quantile sorted 50)

let () =
  Alcotest.run "perfbench"
    [ ( "spans",
        [ Alcotest.test_case "self time is a span minus the union of its children" `Quick
            fixed_tree;
          Alcotest.test_case "interval union" `Quick union_rule;
          QCheck_alcotest.to_alcotest random_trees;
          Alcotest.test_case "a raising body closes its span" `Quick closes_on_raise;
          Alcotest.test_case "tail percentile keeps ten samples beyond it" `Quick tail_rule ] ) ]
