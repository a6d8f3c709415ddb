(* Tests for page clusters: the Table 1 API, shared pages, the
   transitive fetch set, single-cluster eviction safety, and the
   residence invariant as a QCheck property over random cluster graphs
   and fetch/evict sequences. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sorted = List.sort compare

let test_init_release () =
  let t = Autarky.Clusters.create () in
  let ids = Autarky.Clusters.ay_init_clusters t ~n:4 ~size:8 in
  checki "four clusters" 4 (List.length ids);
  checki "registry count" 4 (Autarky.Clusters.cluster_count t);
  List.iter (fun id -> checki "capacity" 8 (Autarky.Clusters.capacity_of t id)) ids;
  Autarky.Clusters.ay_release_clusters t;
  checki "released" 0 (Autarky.Clusters.cluster_count t)

let test_init_rejects_n () =
  Helpers.check_invalid_arg ~naming:": n must" (fun () ->
      Autarky.Clusters.ay_init_clusters (Autarky.Clusters.create ()) ~n:0 ~size:8)

let test_init_rejects_size () =
  Helpers.check_invalid_arg ~naming:"size" (fun () ->
      Autarky.Clusters.ay_init_clusters (Autarky.Clusters.create ()) ~n:4 ~size:0)

let test_add_remove_page () =
  let t = Autarky.Clusters.create () in
  let c = Autarky.Clusters.new_cluster t () in
  Autarky.Clusters.ay_add_page t ~cluster:c 100;
  Autarky.Clusters.ay_add_page t ~cluster:c 101;
  checkb "registered" true (Autarky.Clusters.registered t 100);
  checkb "ids" true (Autarky.Clusters.ay_get_cluster_ids t 100 = [ c ]);
  checki "size" 2 (Autarky.Clusters.size_of t c);
  Autarky.Clusters.ay_remove_page t ~cluster:c 100;
  checkb "deregistered" false (Autarky.Clusters.registered t 100);
  checki "size after remove" 1 (Autarky.Clusters.size_of t c)

let test_add_idempotent () =
  let t = Autarky.Clusters.create () in
  let c = Autarky.Clusters.new_cluster t () in
  Autarky.Clusters.ay_add_page t ~cluster:c 5;
  Autarky.Clusters.ay_add_page t ~cluster:c 5;
  checki "no duplicates" 1 (Autarky.Clusters.size_of t c)

let test_shared_pages () =
  let t = Autarky.Clusters.create () in
  let a = Autarky.Clusters.new_cluster t () in
  let b = Autarky.Clusters.new_cluster t () in
  Autarky.Clusters.ay_add_page t ~cluster:a 1;
  Autarky.Clusters.ay_add_page t ~cluster:a 2;
  Autarky.Clusters.ay_add_page t ~cluster:b 2;
  Autarky.Clusters.ay_add_page t ~cluster:b 3;
  checkb "page 2 in both" true
    (sorted (Autarky.Clusters.ay_get_cluster_ids t 2) = sorted [ a; b ])

let test_fetch_set_simple () =
  let t = Autarky.Clusters.create () in
  let c = Autarky.Clusters.new_cluster t () in
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:c) [ 10; 11; 12 ];
  checkb "whole cluster" true (Autarky.Clusters.fetch_set t 11 = [| 10; 11; 12 |])

let test_fetch_set_unregistered () =
  let t = Autarky.Clusters.create () in
  checkb "singleton" true (Autarky.Clusters.fetch_set t 42 = [| 42 |])

let test_fetch_set_transitive () =
  (* a: {1,2}  b: {2,3}  c: {3,4}  d: {9}
     fetch of 1 must pull the whole chain a-b-c but not d. *)
  let t = Autarky.Clusters.create () in
  let a = Autarky.Clusters.new_cluster t () in
  let b = Autarky.Clusters.new_cluster t () in
  let c = Autarky.Clusters.new_cluster t () in
  let d = Autarky.Clusters.new_cluster t () in
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:a) [ 1; 2 ];
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:b) [ 2; 3 ];
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:c) [ 3; 4 ];
  Autarky.Clusters.ay_add_page t ~cluster:d 9;
  checkb "transitive chain" true (Autarky.Clusters.fetch_set t 1 = [| 1; 2; 3; 4 |]);
  checkb "disjoint excluded" true
    (not (Array.mem 9 (Autarky.Clusters.fetch_set t 1)))

let test_evict_set () =
  let t = Autarky.Clusters.create () in
  let a = Autarky.Clusters.new_cluster t () in
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:a) [ 7; 8 ];
  checkb "one cluster" true (Autarky.Clusters.evict_set t 7 = [| 7; 8 |]);
  checkb "unregistered singleton" true (Autarky.Clusters.evict_set t 99 = [| 99 |])

let test_detach () =
  let t = Autarky.Clusters.create () in
  let a = Autarky.Clusters.new_cluster t () in
  let b = Autarky.Clusters.new_cluster t () in
  Autarky.Clusters.ay_add_page t ~cluster:a 1;
  Autarky.Clusters.ay_add_page t ~cluster:b 1;
  Autarky.Clusters.ay_add_page t ~cluster:a 2;
  Autarky.Clusters.detach t 1;
  checkb "deregistered everywhere" false (Autarky.Clusters.registered t 1);
  checkb "a keeps other pages" true (Autarky.Clusters.pages_of t a = [ 2 ]);
  checki "b emptied" 0 (Autarky.Clusters.size_of t b);
  (* Detaching breaks the transitive link a-b through page 1. *)
  checkb "no more sharing" true (Autarky.Clusters.fetch_set t 2 = [| 2 |])

let test_merge () =
  let t = Autarky.Clusters.create () in
  let a = Autarky.Clusters.new_cluster t () in
  let b = Autarky.Clusters.new_cluster t () in
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:a) [ 1; 2 ];
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:b) [ 3; 4 ];
  Autarky.Clusters.merge t ~into:a ~from:b;
  checkb "merged members" true (sorted (Autarky.Clusters.pages_of t a) = [ 1; 2; 3; 4 ]);
  checki "b gone" 1 (Autarky.Clusters.cluster_count t);
  checkb "page 3 remapped" true (Autarky.Clusters.ay_get_cluster_ids t 3 = [ a ])

(* Regression: a merge naming an unknown cluster fails before it
   touches anything.  It used to move the first page of [from] out,
   raise, and leave that page unregistered. *)
let test_merge_unknown_cluster () =
  let t = Autarky.Clusters.create () in
  let a = Autarky.Clusters.new_cluster t () in
  let b = Autarky.Clusters.new_cluster t () in
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:b) [ 3; 4 ];
  let raises f = try f (); false with Invalid_argument _ -> true in
  checkb "unknown into raises" true
    (raises (fun () -> Autarky.Clusters.merge t ~into:99 ~from:b));
  checkb "unknown from raises" true
    (raises (fun () -> Autarky.Clusters.merge t ~into:b ~from:99));
  checkb "b keeps both pages" true (sorted (Autarky.Clusters.pages_of t b) = [ 3; 4 ]);
  checkb "page 4 still registered" true (Autarky.Clusters.registered t 4);
  checkb "page 4 still in b" true (Autarky.Clusters.ay_get_cluster_ids t 4 = [ b ]);
  checki "no cluster dropped" 2 (Autarky.Clusters.cluster_count t);
  checki "a untouched" 0 (Autarky.Clusters.size_of t a)

let test_invariant_checker () =
  let t = Autarky.Clusters.create () in
  let a = Autarky.Clusters.new_cluster t () in
  List.iter (Autarky.Clusters.ay_add_page t ~cluster:a) [ 1; 2 ];
  (* All resident: holds. *)
  checkb "all resident" true (Autarky.Clusters.invariant_holds t ~resident:(fun _ -> true));
  (* All non-resident: holds (the cluster is fully out). *)
  checkb "all out" true (Autarky.Clusters.invariant_holds t ~resident:(fun _ -> false));
  (* Page 1 out, page 2 in: a is partially resident — violated. *)
  checkb "partial violates" false
    (Autarky.Clusters.invariant_holds t ~resident:(fun p -> p = 2))

(* The central property (§5.2.3): starting from all-non-resident,
   any sequence of
     - "fault" steps that fetch the transitive fetch_set of a page, and
     - "evict" steps that evict one whole cluster (evict_set)
   preserves:  every non-resident registered page belongs to at least
   one cluster that is entirely non-resident. *)
let invariant_property (n_pages, n_clusters, memberships, ops) =
  let t = Autarky.Clusters.create () in
  let ids = Array.init n_clusters (fun _ -> Autarky.Clusters.new_cluster t ()) in
  List.iter
    (fun (page, cluster) ->
      Autarky.Clusters.ay_add_page t ~cluster:ids.(cluster mod n_clusters)
        (page mod n_pages))
    memberships;
  let resident = Hashtbl.create 64 in
  let is_resident p = Hashtbl.mem resident p in
  List.for_all
    (fun (fault, page) ->
      let page = page mod n_pages in
      if fault then
        Array.iter (fun p -> Hashtbl.replace resident p ())
          (Autarky.Clusters.fetch_set t page)
      else
        Array.iter (fun p -> Hashtbl.remove resident p)
          (Autarky.Clusters.evict_set t page);
      Autarky.Clusters.invariant_holds t ~resident:is_resident)
    ops

(* --- differential check against a BFS oracle ------------------------ *)

(* The reference model: the Table 1 semantics over plain association
   tables, with the fetch set computed by breadth-first search over the
   cluster-sharing graph on every query. *)
module Model = struct
  type t = {
    members : (int, int list) Hashtbl.t;  (* cluster -> pages, newest first *)
    ids : (int, int list) Hashtbl.t;  (* page -> clusters, newest first *)
    mutable next_id : int;
  }

  let create () = { members = Hashtbl.create 8; ids = Hashtbl.create 8; next_id = 0 }

  let new_cluster m =
    let id = m.next_id in
    m.next_id <- id + 1;
    Hashtbl.replace m.members id [];
    id

  let ids m p = Option.value (Hashtbl.find_opt m.ids p) ~default:[]
  let pages m c = Hashtbl.find m.members c

  let add m c p =
    if not (List.mem p (pages m c)) then begin
      Hashtbl.replace m.members c (p :: pages m c);
      Hashtbl.replace m.ids p (c :: ids m p)
    end

  let remove m c p =
    Hashtbl.replace m.members c (List.filter (( <> ) p) (pages m c));
    match List.filter (( <> ) c) (ids m p) with
    | [] -> Hashtbl.remove m.ids p
    | l -> Hashtbl.replace m.ids p l

  let detach m p = List.iter (fun c -> remove m c p) (ids m p)

  let merge m ~into ~from =
    if into <> from then begin
      List.iter
        (fun p ->
          remove m from p;
          add m into p)
        (pages m from);
      Hashtbl.remove m.members from
    end

  let release m =
    Hashtbl.reset m.members;
    Hashtbl.reset m.ids;
    m.next_id <- 0

  let live m = List.sort compare (Hashtbl.fold (fun c _ acc -> c :: acc) m.members [])
  let registered_pages m = List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) m.ids [])

  let fetch_set m p =
    if ids m p = [] then [| p |]
    else begin
      let seen_c = Hashtbl.create 8 and seen_p = Hashtbl.create 8 in
      let q = Queue.create () in
      List.iter (fun c -> Queue.push c q) (ids m p);
      while not (Queue.is_empty q) do
        let c = Queue.pop q in
        if not (Hashtbl.mem seen_c c) then begin
          Hashtbl.replace seen_c c ();
          List.iter
            (fun p' ->
              if not (Hashtbl.mem seen_p p') then begin
                Hashtbl.replace seen_p p' ();
                List.iter (fun c' -> Queue.push c' q) (ids m p')
              end)
            (pages m c)
        end
      done;
      Array.of_list (List.sort compare (Hashtbl.fold (fun p' () acc -> p' :: acc) seen_p []))
    end

  let evict_set m p =
    match ids m p with
    | [] -> [| p |]
    | c :: _ -> Array.of_list (List.sort compare (pages m c))

  let largest m =
    List.fold_left (fun b p -> max b (Array.length (fetch_set m p))) 0 (registered_pages m)
end

type op =
  | New
  | Add of int * int  (* page, cluster pick *)
  | Remove of int * int
  | Detach of int
  | Merge of int * int
  | Merge_unknown of int
  | Release

let n_pages = 16

let gen_op =
  QCheck2.Gen.(
    frequency
      [ (2, return New);
        (8, map2 (fun p c -> Add (p, c)) (int_bound (n_pages - 1)) nat);
        (3, map2 (fun p c -> Remove (p, c)) (int_bound (n_pages - 1)) nat);
        (1, map (fun p -> Detach p) (int_bound (n_pages - 1)));
        (2, map2 (fun a b -> Merge (a, b)) nat nat);
        (1, map (fun c -> Merge_unknown c) nat);
        (1, return Release) ])

let print_op = function
  | New -> "new"
  | Add (p, c) -> Printf.sprintf "add(%d,#%d)" p c
  | Remove (p, c) -> Printf.sprintf "remove(%d,#%d)" p c
  | Detach p -> Printf.sprintf "detach(%d)" p
  | Merge (a, b) -> Printf.sprintf "merge(#%d,#%d)" a b
  | Merge_unknown c -> Printf.sprintf "merge-unknown(#%d)" c
  | Release -> "release"

(* Apply one op to both sides; cluster picks index the live ids. *)
let apply t m op =
  let module C = Autarky.Clusters in
  let pick k =
    match Model.live m with [] -> None | l -> Some (List.nth l (k mod List.length l))
  in
  match op with
  | New -> checki "same new id" (Model.new_cluster m) (C.new_cluster t ())
  | Add (p, k) ->
    Option.iter (fun c -> Model.add m c p; C.ay_add_page t ~cluster:c p) (pick k)
  | Remove (p, k) ->
    Option.iter (fun c -> Model.remove m c p; C.ay_remove_page t ~cluster:c p) (pick k)
  | Detach p ->
    Model.detach m p;
    C.detach t p
  | Merge (a, b) -> (
    match (pick a, pick b) with
    | Some into, Some from ->
      Model.merge m ~into ~from;
      C.merge t ~into ~from
    | _ -> ())
  | Merge_unknown k ->
    Option.iter
      (fun c ->
        let raises f = try f (); false with Invalid_argument _ -> true in
        checkb "unknown into" true (raises (fun () -> C.merge t ~into:m.Model.next_id ~from:c));
        checkb "unknown from" true (raises (fun () -> C.merge t ~into:c ~from:(-1))))
      (pick k)
  | Release ->
    Model.release m;
    C.ay_release_clusters t

let agrees t m =
  let module C = Autarky.Clusters in
  C.registered_pages t = Model.registered_pages m
  && C.cluster_count t = List.length (Model.live m)
  && List.for_all (fun c -> C.pages_of t c = Model.pages m c) (Model.live m)
  && C.largest_fetch_set t = Model.largest m
  && List.for_all
       (fun p ->
         C.ay_get_cluster_ids t p = Model.ids m p
         && C.fetch_set t p = Model.fetch_set m p
         && C.evict_set t p = Model.evict_set m p)
       (List.init n_pages Fun.id)

let differential_property ops =
  let t = Autarky.Clusters.create () and m = Model.create () in
  List.for_all
    (fun op ->
      apply t m op;
      agrees t m)
    ops

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make
        ~name:"queries match a BFS oracle under random mutation" ~count:300
        ~print:(fun ops -> String.concat " " (List.map print_op ops))
        QCheck2.Gen.(list_size (int_range 1 80) gen_op)
        differential_property;
      QCheck2.Test.make
        ~name:"cluster residence invariant under random fetch/evict" ~count:200
        QCheck2.Gen.(
          quad (int_range 4 30) (int_range 1 8)
            (list_size (int_range 1 60) (pair (int_range 0 29) (int_range 0 7)))
            (list_size (int_range 1 40) (pair bool (int_range 0 29))))
        invariant_property;
      QCheck2.Test.make ~name:"fetch_set contains the faulting page" ~count:200
        QCheck2.Gen.(
          pair
            (list_size (int_range 1 40) (pair (int_range 0 19) (int_range 0 4)))
            (int_range 0 19))
        (fun (memberships, page) ->
          let t = Autarky.Clusters.create () in
          let ids = Array.init 5 (fun _ -> Autarky.Clusters.new_cluster t ()) in
          List.iter
            (fun (p, c) -> Autarky.Clusters.ay_add_page t ~cluster:ids.(c) p)
            memberships;
          Array.mem page (Autarky.Clusters.fetch_set t page));
      QCheck2.Test.make ~name:"fetch_set is closed under sharing" ~count:200
        QCheck2.Gen.(
          pair
            (list_size (int_range 1 50) (pair (int_range 0 19) (int_range 0 5)))
            (int_range 0 19))
        (fun (memberships, page) ->
          let t = Autarky.Clusters.create () in
          let ids = Array.init 6 (fun _ -> Autarky.Clusters.new_cluster t ()) in
          List.iter
            (fun (p, c) -> Autarky.Clusters.ay_add_page t ~cluster:ids.(c) p)
            memberships;
          let fs = Autarky.Clusters.fetch_set t page in
          (* For every page in the set, every cluster it belongs to has
             all members in the set. *)
          Array.for_all
            (fun p ->
              List.for_all
                (fun c ->
                  List.for_all (fun q -> Array.mem q fs)
                    (Autarky.Clusters.pages_of t c))
                (Autarky.Clusters.ay_get_cluster_ids t p))
            fs);
    ]

let suite =
  [
    ("init/release", `Quick, test_init_release);
    ("init rejects zero n", `Quick, test_init_rejects_n);
    ("init rejects zero size", `Quick, test_init_rejects_size);
    ("add/remove page", `Quick, test_add_remove_page);
    ("add idempotent", `Quick, test_add_idempotent);
    ("shared pages", `Quick, test_shared_pages);
    ("fetch set: one cluster", `Quick, test_fetch_set_simple);
    ("fetch set: unregistered", `Quick, test_fetch_set_unregistered);
    ("fetch set: transitive", `Quick, test_fetch_set_transitive);
    ("evict set", `Quick, test_evict_set);
    ("detach", `Quick, test_detach);
    ("merge", `Quick, test_merge);
    ("merge with an unknown cluster changes nothing", `Quick, test_merge_unknown_cluster);
    ("invariant checker", `Quick, test_invariant_checker);
  ]
  @ qcheck_cases
