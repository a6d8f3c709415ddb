type cluster_id = int
type vpage = Sgx.Types.vpage

type cluster = { mutable members : vpage list; mutable capacity : int }

type t = {
  clusters : (cluster_id, cluster) Hashtbl.t;
  page_index : (vpage, cluster_id list ref) Hashtbl.t;
  mutable next_id : cluster_id;
  (* Fault-time decision tables: fetch/evict sets memoized per page and
     invalidated wholesale by bumping [gen] on any membership change.
     The BFS behind [fetch_set] is linear in the reachable subgraph and
     dominated repeat faults on stable cluster layouts. *)
  mutable gen : int;
  fetch_cache : (vpage, int * vpage list) Hashtbl.t;
  evict_cache : (vpage, int * vpage list) Hashtbl.t;
}

let create () =
  {
    clusters = Hashtbl.create 256;
    page_index = Hashtbl.create 4096;
    next_id = 0;
    gen = 0;
    fetch_cache = Hashtbl.create 4096;
    evict_cache = Hashtbl.create 4096;
  }

let invalidate t = t.gen <- t.gen + 1

let new_cluster t ?(size = 0) () =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.clusters id { members = []; capacity = size };
  id

let ay_init_clusters t ~n ~size =
  assert (n > 0 && size > 0);
  List.init n (fun _ -> new_cluster t ~size ())

let ay_release_clusters t =
  Hashtbl.reset t.clusters;
  Hashtbl.reset t.page_index;
  Hashtbl.reset t.fetch_cache;
  Hashtbl.reset t.evict_cache;
  invalidate t;
  t.next_id <- 0

let find_cluster t id =
  match Hashtbl.find_opt t.clusters id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Clusters: unknown cluster %d" id)

let ay_add_page t ~cluster vpage =
  let c = find_cluster t cluster in
  if not (List.mem vpage c.members) then begin
    c.members <- vpage :: c.members;
    invalidate t;
    match Hashtbl.find_opt t.page_index vpage with
    | Some ids -> if not (List.mem cluster !ids) then ids := cluster :: !ids
    | None -> Hashtbl.replace t.page_index vpage (ref [ cluster ])
  end

let ay_remove_page t ~cluster vpage =
  let c = find_cluster t cluster in
  c.members <- List.filter (fun p -> p <> vpage) c.members;
  invalidate t;
  match Hashtbl.find_opt t.page_index vpage with
  | Some ids ->
    ids := List.filter (fun id -> id <> cluster) !ids;
    if !ids = [] then Hashtbl.remove t.page_index vpage
  | None -> ()

let ay_get_cluster_ids t vpage =
  match Hashtbl.find_opt t.page_index vpage with
  | Some ids -> !ids
  | None -> []

let detach t vpage =
  List.iter
    (fun id -> ay_remove_page t ~cluster:id vpage)
    (ay_get_cluster_ids t vpage)

let pages_of t id = (find_cluster t id).members
let size_of t id = List.length (find_cluster t id).members
let capacity_of t id = (find_cluster t id).capacity
let cluster_count t = Hashtbl.length t.clusters
let registered t vpage = Hashtbl.mem t.page_index vpage

let registered_pages t =
  Hashtbl.fold (fun vp _ acc -> vp :: acc) t.page_index [] |> List.sort Int.compare

let merge t ~into ~from =
  if into <> from then begin
    let pages = pages_of t from in
    List.iter
      (fun p ->
        ay_remove_page t ~cluster:from p;
        ay_add_page t ~cluster:into p)
      pages;
    Hashtbl.remove t.clusters from
  end

(* BFS over the cluster-sharing graph: clusters are nodes, an edge exists
   when two clusters share a page.  Required for fetch correctness: if we
   fetched only the directly-faulting cluster, previously-shared fetches
   could leave a cluster with a single non-resident page whose later
   fault would be uniquely identifying (§5.2.3). *)
let reachable_clusters t vpage =
  let seen_clusters = Hashtbl.create 16 in
  let seen_pages = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter (fun id -> Queue.push id queue) (ay_get_cluster_ids t vpage);
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    if not (Hashtbl.mem seen_clusters id) then begin
      Hashtbl.replace seen_clusters id ();
      List.iter
        (fun p ->
          if not (Hashtbl.mem seen_pages p) then begin
            Hashtbl.replace seen_pages p ();
            List.iter
              (fun id' -> if not (Hashtbl.mem seen_clusters id') then Queue.push id' queue)
              (ay_get_cluster_ids t p)
          end)
        (pages_of t id)
    end
  done;
  (seen_clusters, seen_pages)

let fetch_set t vpage =
  match Hashtbl.find_opt t.fetch_cache vpage with
  | Some (g, set) when g = t.gen -> set
  | _ ->
    let set =
      if not (registered t vpage) then [ vpage ]
      else
        let _, pages = reachable_clusters t vpage in
        Hashtbl.fold (fun p () acc -> p :: acc) pages [] |> List.sort Int.compare
    in
    Hashtbl.replace t.fetch_cache vpage (t.gen, set);
    set

(* Fetch sets partition the registered pages (each is one connected
   component of the sharing graph), so one [fetch_set] per component
   covers them all. *)
let largest_fetch_set t =
  let covered = Hashtbl.create 64 in
  List.fold_left
    (fun best vp ->
      if Hashtbl.mem covered vp then best
      else begin
        let set = fetch_set t vp in
        List.iter (fun p -> Hashtbl.replace covered p ()) set;
        max best (List.length set)
      end)
    0 (registered_pages t)

let evict_set t vpage =
  match Hashtbl.find_opt t.evict_cache vpage with
  | Some (g, set) when g = t.gen -> set
  | _ ->
    let set =
      match ay_get_cluster_ids t vpage with
      | [] -> [ vpage ]
      | id :: _ -> List.sort Int.compare (pages_of t id)
    in
    Hashtbl.replace t.evict_cache vpage (t.gen, set);
    set

let invariant_holds t ~resident =
  List.for_all
    (fun vp ->
      resident vp
      || List.exists
           (fun id -> List.for_all (fun p -> not (resident p)) (pages_of t id))
           (ay_get_cluster_ids t vp))
    (registered_pages t)
