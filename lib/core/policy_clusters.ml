type t = {
  runtime : Runtime.t;
  cl : Clusters.t;
  mutable min_budget : int;
  mutable fetches : int;
  mutable balloon_calls : int;
  (* Pages being fetched by the current miss, as page -> [stamp]; a new
     stamp per victim search empties the set without clearing it. *)
  in_fetch : Sgx.Flat.t;
  mutable stamp : int;
  victims : unit -> Sgx.Types.vpage list;
      (* built once: [Pager.make_room]'s victim source *)
  accept : Sgx.Types.vpage -> bool;
      (* built once: the FIFO scan's victim filter *)
  c_degraded : Metrics.Counters.cell;
}

let clusters t = t.cl
let cluster_fetches t = t.fetches

let emit t k =
  match Sgx.Machine.tracer (Runtime.machine t.runtime) with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(Runtime.enclave t.runtime).Sgx.Enclave.id
      ~actor:(Trace.Event.Policy "page-clusters") (k ())

let rec meets_fetch t set i =
  i < Array.length set
  && (Sgx.Flat.find t.in_fetch (Array.unsafe_get set i) = t.stamp
     || meets_fetch t set (i + 1))

(* The resident pages of [set], ascending. *)
let resident_list pager set =
  let acc = ref [] in
  for i = Array.length set - 1 downto 0 do
    let p = Array.unsafe_get set i in
    if Pager.resident pager p then acc := p :: !acc
  done;
  !acc

(* A victim cluster must not overlap the incoming fetch set: evicting
   pages we are about to fetch would both waste work and break the
   residence invariant for partially-evicted clusters.  The victim is
   the first of the 64 FIFO-oldest residents whose evict set misses the
   pages marked with the current stamp. *)
let choose_victims t () =
  let pager = Runtime.pager t.runtime in
  match Pager.find_oldest_resident pager 64 t.accept with
  | None -> []
  | Some vp -> resident_list pager (Clusters.evict_set t.cl vp)

let create ~runtime ~clusters =
  let in_fetch = Sgx.Flat.create () in
  let c_degraded =
    Metrics.Counters.cell
      (Sgx.Machine.counters (Runtime.machine runtime))
      "rt.policy_degraded"
  in
  let rec t =
    {
      runtime;
      cl = clusters;
      min_budget = 32;
      fetches = 0;
      balloon_calls = 0;
      in_fetch;
      stamp = 0;
      victims = (fun () -> choose_victims t ());
      accept = (fun vp -> not (meets_fetch t (Clusters.evict_set t.cl vp) 0));
      c_degraded;
    }
  in
  t

let set_min_budget t n =
  if n <= 0 then invalid_arg "Policy_clusters.set_min_budget: n must be positive";
  t.min_budget <- n

let on_miss t vp _sf =
  let pager = Runtime.pager t.runtime in
  let set = Clusters.fetch_set t.cl vp in
  (* One pass over the ascending set: the non-resident pages, in order,
     counted and marked for the victim filter. *)
  t.stamp <- t.stamp + 1;
  let need = ref [] and n = ref 0 in
  for i = Array.length set - 1 downto 0 do
    let p = Array.unsafe_get set i in
    if not (Pager.resident pager p) then begin
      need := p :: !need;
      incr n;
      Sgx.Flat.set t.in_fetch p t.stamp
    end
  done;
  let need = !need and n = !n in
  if n > Pager.budget pager then
    (* Serving part of the set would break the residence invariant. *)
    Sgx.Enclave.terminate (Runtime.enclave t.runtime)
      ~reason:
        (Printf.sprintf
           "cluster fetch set of %d pages exceeds the runtime budget of %d"
           n (Pager.budget pager));
  (* Inlined emit: the thunk form would capture [need] and allocate a
     closure per miss even with tracing off. *)
  (match Sgx.Machine.tracer (Runtime.machine t.runtime) with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(Runtime.enclave t.runtime).Sgx.Enclave.id
      ~actor:(Trace.Event.Policy "page-clusters")
      (Trace.Event.Decision
         { policy = "page-clusters"; action = "cluster-fetch"; vpages = need }));
  Pager.make_room pager ~incoming:n ~victims:t.victims;
  Pager.fetch pager need;
  t.fetches <- t.fetches + 1

(* Ballooning: release whole clusters only — single-cluster eviction
   preserves the residence invariant.  Sustained pressure (a second and
   further upcalls) also shrinks the pager budget toward [min_budget],
   but never below the largest cluster fetch set, which must still fit:
   degraded cluster churn instead of a starvation termination. *)
let balloon t n =
  t.balloon_calls <- t.balloon_calls + 1;
  let pager = Runtime.pager t.runtime in
  let released = ref 0 in
  let stuck = ref false in
  (* A fresh stamp marks no page: every cluster is a candidate. *)
  t.stamp <- t.stamp + 1;
  while !released < n && not !stuck do
    match choose_victims t () with
    | [] -> stuck := true
    | vs ->
      Pager.evict pager vs;
      released := !released + List.length vs
  done;
  if t.balloon_calls >= 2 then begin
    let floor = max t.min_budget (Clusters.largest_fetch_set t.cl) in
    let shrunk = max floor (Pager.budget pager - n) in
    if shrunk < Pager.budget pager then begin
      Pager.set_budget pager shrunk;
      Metrics.Counters.cell_incr t.c_degraded;
      emit t (fun () ->
          Trace.Event.Decision
            { policy = "page-clusters"; action = "degrade-shrink-budget";
              vpages = [] })
    end
  end;
  !released

let policy t =
  { Runtime.pol_name = "page-clusters";
    pol_on_miss = (fun vp sf -> on_miss t vp sf);
    pol_balloon = (fun n -> balloon t n);
    pol_footprint = Sgx.Flat.footprint t.in_fetch }
