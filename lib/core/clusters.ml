type cluster_id = int
type vpage = Sgx.Types.vpage

(* Clusters are dense ids (new_cluster counts up, release resets), so
   they live in an array indexed by id; per-page state lives in arrays
   indexed by a page slot, which [slot_of] (vpage -> slot) hands out and
   recycles.

   The transitive fetch set of a page is the connected component of the
   cluster-sharing graph containing its clusters.  Components are kept
   by union-find over cluster ids: [parent] links toward the root and
   [next] threads each component's clusters into a circular list, so a
   union is O(1) list splicing and a component can be enumerated without
   a search.  Adding a page unions in place; removing one (and merge,
   detach) rebuilds the one affected component from its cluster list.

   The sets handed out by [fetch_set]/[evict_set] are built on first
   query after a change and cached: per component at its root
   ([comp_set]), per cluster ([evict]).  A cached array is replaced, never
   mutated, so a caller holding one keeps a consistent snapshot. *)

type cluster = {
  mutable members : vpage list;  (* most recently added first *)
  mutable size : int;  (* [-1]: the id was deleted by [merge] *)
  capacity : int;
  mutable evict : vpage array;  (* members ascending, when [evict_ok] *)
  mutable evict_ok : bool;
  mutable parent : cluster_id;
  mutable next : cluster_id;
  mutable comp_set : vpage array;  (* at a root: the component's pages ascending *)
  mutable comp_ok : bool;
}

type t = {
  mutable next_id : cluster_id;
  mutable live : int;
  mutable cl : cluster array;  (* ids [0, next_id) are in use *)
  (* per page slot *)
  slot_of : Sgx.Flat.t;
  mutable ids : cluster_id list array;  (* most recently added first *)
  mutable mark : int array;  (* [stamp] of the last set build that saw it *)
  mutable free_slots : int list;
  mutable used_slots : int;
  mutable stamp : int;
}

(* Fills the unused tail of [cl]; never reached through a valid id. *)
let unused =
  { members = []; size = -1; capacity = 0; evict = [||]; evict_ok = false;
    parent = -1; next = -1; comp_set = [||]; comp_ok = false }

let create () =
  {
    next_id = 0;
    live = 0;
    cl = Array.make 16 unused;
    slot_of = Sgx.Flat.create ();
    ids = Array.make 64 [];
    mark = Array.make 64 0;
    free_slots = [];
    used_slots = 0;
    stamp = 0;
  }

let footprint t acc = Sgx.Flat.footprint t.slot_of acc

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_cluster t ?(size = 0) () =
  let id = t.next_id in
  if id = Array.length t.cl then t.cl <- grow t.cl (2 * id) unused;
  t.cl.(id) <-
    { members = []; size = 0; capacity = size; evict = [||]; evict_ok = true;
      parent = id; next = id; comp_set = [||]; comp_ok = true };
  t.next_id <- id + 1;
  t.live <- t.live + 1;
  id

let ay_init_clusters t ~n ~size =
  if n <= 0 then invalid_arg "Clusters.ay_init_clusters: n must be positive";
  if size <= 0 then
    invalid_arg "Clusters.ay_init_clusters: size must be positive";
  List.init n (fun _ -> new_cluster t ~size ())

(* The arrays keep their capacity: each cluster id and page slot is
   initialised again when it is handed out, and [stamp] only grows, so
   no stale mark can match. *)
let ay_release_clusters t =
  t.next_id <- 0;
  t.live <- 0;
  Sgx.Flat.clear t.slot_of;
  t.free_slots <- [];
  t.used_slots <- 0

let get t id =
  if id < 0 || id >= t.next_id || t.cl.(id).size < 0 then
    invalid_arg (Printf.sprintf "Clusters: unknown cluster %d" id);
  t.cl.(id)

(* --- page slots ------------------------------------------------------ *)

let slot t vpage = Sgx.Flat.find t.slot_of vpage

let new_slot t vpage =
  let s =
    match t.free_slots with
    | s :: rest ->
      t.free_slots <- rest;
      s
    | [] ->
      let s = t.used_slots in
      if s >= Array.length t.ids then begin
        let m = 2 * Array.length t.ids in
        t.ids <- grow t.ids m [];
        t.mark <- grow t.mark m 0
      end;
      t.used_slots <- s + 1;
      s
  in
  Sgx.Flat.set t.slot_of vpage s;
  s

let free_slot t vpage s =
  Sgx.Flat.remove t.slot_of vpage;
  t.ids.(s) <- [];
  t.free_slots <- s :: t.free_slots

(* --- union-find ------------------------------------------------------ *)

let rec find t c =
  let k = t.cl.(c) in
  if k.parent = c then c
  else begin
    let r = find t k.parent in
    k.parent <- r;
    r
  end

(* Links [b]'s root under [a]'s, and splices their cluster lists. *)
let union t a b =
  let root = find t a and child = find t b in
  if root <> child then begin
    let r = t.cl.(root) and c = t.cl.(child) in
    c.parent <- root;
    (* Swapping one successor from each circular list joins them. *)
    let n = r.next in
    r.next <- c.next;
    c.next <- n;
    r.comp_ok <- false;
    c.comp_set <- [||]
  end

(* The clusters of [c]'s component, by walking its circular list. *)
let component_clusters t c =
  let rec go k acc =
    let acc = k :: acc in
    let n = t.cl.(k).next in
    if n = c then acc else go n acc
  in
  go c []

(* Re-derive the components of the clusters that were one component
   (after a page left a cluster, or a cluster was deleted): reset each
   to a singleton, then union again over every page they still share.
   Deleted clusters drop out of the lists here. *)
let rebuild t c =
  let ks = component_clusters t c in
  List.iter
    (fun k ->
      let r = t.cl.(k) in
      r.parent <- k;
      r.next <- k;
      r.comp_ok <- false;
      r.comp_set <- [||])
    ks;
  List.iter
    (fun k ->
      let r = t.cl.(k) in
      if r.size >= 0 then
        List.iter
          (fun p ->
            List.iter (fun k' -> if k' <> k then union t k k') t.ids.(slot t p))
          r.members)
    ks

(* --- the Table 1 API ------------------------------------------------- *)

let ay_add_page t ~cluster vpage =
  let c = get t cluster in
  let s = slot t vpage in
  if s < 0 || not (List.mem cluster t.ids.(s)) then begin
    (match if s < 0 then [] else t.ids.(s) with
    | [] -> t.ids.(new_slot t vpage) <- [ cluster ]
    | other :: _ as ids ->
      t.ids.(s) <- cluster :: ids;
      union t cluster other);
    c.members <- vpage :: c.members;
    c.size <- c.size + 1;
    c.evict_ok <- false;
    t.cl.(find t cluster).comp_ok <- false
  end

let ay_remove_page t ~cluster vpage =
  let c = get t cluster in
  let s = slot t vpage in
  if s >= 0 && List.mem cluster t.ids.(s) then begin
    c.members <- List.filter (fun p -> p <> vpage) c.members;
    c.size <- c.size - 1;
    c.evict_ok <- false;
    (match List.filter (fun id -> id <> cluster) t.ids.(s) with
    | [] -> free_slot t vpage s
    | ids -> t.ids.(s) <- ids);
    rebuild t cluster
  end

let ay_get_cluster_ids t vpage =
  let s = slot t vpage in
  if s < 0 then [] else t.ids.(s)

let detach t vpage =
  List.iter
    (fun id -> ay_remove_page t ~cluster:id vpage)
    (ay_get_cluster_ids t vpage)

let pages_of t id = (get t id).members
let size_of t id = (get t id).size
let capacity_of t id = (get t id).capacity
let cluster_count t = t.live
let registered t vpage = Sgx.Flat.mem t.slot_of vpage

(* [Flat.fold] visits ascending, so the consed list comes out reversed. *)
let registered_pages t =
  List.rev (Sgx.Flat.fold (fun vp _ acc -> vp :: acc) t.slot_of [])

(* Both ids are checked before anything moves.  Pages move in [from]'s
   member order, so [into] ends up as it would after removing each page
   from [from] and adding it to [into] one at a time. *)
let merge t ~into ~from =
  let dst = get t into and src = get t from in
  if into <> from then begin
    union t into from;
    List.iter
      (fun p ->
        let s = slot t p in
        let ids = List.filter (fun id -> id <> from) t.ids.(s) in
        if List.mem into ids then t.ids.(s) <- ids
        else begin
          t.ids.(s) <- into :: ids;
          dst.members <- p :: dst.members;
          dst.size <- dst.size + 1
        end)
      src.members;
    dst.evict_ok <- false;
    src.members <- [];
    src.size <- -1;
    src.evict <- [||];
    t.live <- t.live - 1;
    rebuild t into
  end

(* --- fault-time sets -------------------------------------------------- *)

let ascending a =
  Array.sort Int.compare a;
  a

(* Each page once, however many of the component's clusters hold it. *)
let build_component t root =
  t.stamp <- t.stamp + 1;
  let pages = ref [] in
  List.iter
    (fun k ->
      List.iter
        (fun p ->
          let s = slot t p in
          if t.mark.(s) <> t.stamp then begin
            t.mark.(s) <- t.stamp;
            pages := p :: !pages
          end)
        t.cl.(k).members)
    (component_clusters t root);
  let set = ascending (Array.of_list !pages) in
  let r = t.cl.(root) in
  r.comp_set <- set;
  r.comp_ok <- true;
  set

let component_set t root =
  let r = t.cl.(root) in
  if r.comp_ok then r.comp_set else build_component t root

let fetch_set t vpage =
  let s = slot t vpage in
  if s < 0 then [| vpage |]
  else
    match t.ids.(s) with
    | c :: _ -> component_set t (find t c)
    | [] -> [| vpage |]

let evict_set t vpage =
  let s = slot t vpage in
  if s < 0 then [| vpage |]
  else
    match t.ids.(s) with
    | c :: _ ->
      let k = t.cl.(c) in
      if k.evict_ok then k.evict
      else begin
        let set = ascending (Array.of_list k.members) in
        k.evict <- set;
        k.evict_ok <- true;
        set
      end
    | [] -> [| vpage |]

let largest_fetch_set t =
  let best = ref 0 in
  for c = 0 to t.next_id - 1 do
    let k = t.cl.(c) in
    if k.size >= 0 && k.parent = c then
      best := max !best (Array.length (component_set t c))
  done;
  !best

let invariant_holds t ~resident =
  List.for_all
    (fun vp ->
      resident vp
      || List.exists
           (fun id -> List.for_all (fun p -> not (resident p)) (pages_of t id))
           (ay_get_cluster_ids t vp))
    (registered_pages t)
