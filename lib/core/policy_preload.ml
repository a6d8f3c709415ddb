(* Heisenberg-style proactive preloading: keep the whole protected
   working set EPC-resident so the page-fault channel never opens.

   Where the demand policies obscure *which* page a fault asked for,
   preloading removes the fault itself: every page of the preload set is
   fetched eagerly, so steady-state execution takes no paging fault at
   all and the OS observes one constant fetch batch whose composition
   depends only on the set (never on the access that triggered it).

   A miss can still happen legitimately — the OS reclaimed frames
   through ballooning, or a page outside the original set was touched.
   The response re-fetches the *entire* non-resident part of the set in
   one batch, so the faulting page is hidden inside a refill whose
   contents are a function of (set, residency) only.

   The guarantee is conditional on capacity: the set must fit in the
   pager budget alongside whatever else is resident.  [create] refuses
   (Invalid_argument) when it does not — the defense controller treats
   that as a failed escalation and backs off, mirroring Heisenberg's
   own EPC-capacity limitation. *)

type t = {
  runtime : Runtime.t;
  set : Sgx.Flat.t;  (* vpage -> 1 for set members *)
  order : Sgx.Types.vpage Queue.t;  (* FIFO over set members *)
  mutable capacity : int;  (* max set size; shrinks under pressure *)
  mutable min_capacity : int;
  mutable preloads : int;  (* batch refills performed *)
  mutable balloon_calls : int;
  c_degraded : Metrics.Counters.cell;
}

let emit t k =
  match Sgx.Machine.tracer (Runtime.machine t.runtime) with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(Runtime.enclave t.runtime).Sgx.Enclave.id
      ~actor:(Trace.Event.Policy "preload") (k ())

let set_size t = Sgx.Flat.length t.set
let capacity t = t.capacity
let preloads t = t.preloads
let in_set t vp = Sgx.Flat.mem t.set vp

let add_member t vp =
  if not (in_set t vp) then begin
    Sgx.Flat.set t.set vp 1;
    Queue.push vp t.order
  end

(* Evict the oldest set member (membership and residence) to make room
   for a page joining a full set. *)
let retire_oldest t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some old ->
    Sgx.Flat.remove t.set old;
    let pager = Runtime.pager t.runtime in
    if Pager.resident pager old then Pager.evict pager [ old ]

(* Non-set resident pages in FIFO order — the only legitimate victims;
   evicting a set member to admit a set member would defeat pinning. *)
let victims t pager () =
  List.filter (fun vp -> not (in_set t vp)) (Pager.oldest_residents pager 64)

(* Fetch every non-resident set member in one batch. *)
let preload t =
  let pager = Runtime.pager t.runtime in
  let need =
    Queue.fold
      (fun acc vp -> if Pager.resident pager vp then acc else vp :: acc)
      [] t.order
    |> List.rev
  in
  if need <> [] then begin
    emit t (fun () ->
        Trace.Event.Decision
          { policy = "preload"; action = "preload-refill"; vpages = need });
    Pager.make_room pager ~incoming:(List.length need) ~victims:(victims t pager);
    Pager.fetch pager need;
    t.preloads <- t.preloads + 1
  end

let create ~runtime ?(min_capacity = 16) ~pages () =
  if min_capacity <= 0 then
    invalid_arg "Policy_preload.create: min_capacity must be positive";
  let pager = Runtime.pager runtime in
  let distinct = List.sort_uniq compare pages in
  let n = List.length distinct in
  (* Residency already held by pages outside the set (pinned code, ORAM
     cache, runtime metadata) stays resident and counts against the
     budget; the set must fit in what remains. *)
  let resident_outside =
    Pager.resident_count pager
    - List.length (List.filter (Pager.resident pager) distinct)
  in
  if n + resident_outside > Pager.budget pager then
    invalid_arg
      (Printf.sprintf
         "Policy_preload.create: preload set of %d pages (+%d resident \
          outside it) exceeds the pager budget of %d"
         n resident_outside (Pager.budget pager));
  let t =
    {
      runtime;
      set = Sgx.Flat.create ();
      order = Queue.create ();
      capacity = max min_capacity n;
      min_capacity;
      preloads = 0;
      balloon_calls = 0;
      c_degraded =
        Metrics.Counters.cell
          (Sgx.Machine.counters (Runtime.machine runtime))
          "rt.policy_degraded";
    }
  in
  List.iter (add_member t) distinct;
  t

let on_miss t vp _sf =
  (* A miss on a set member means the OS legitimately reclaimed it
     (ballooning); a miss outside the set is a page joining the working
     set.  Either way the answer is the same constant-shape refill. *)
  if not (in_set t vp) then begin
    if set_size t >= t.capacity then retire_oldest t;
    add_member t vp
  end;
  preload t

(* Ballooning: a single upcall is refused — every set member is
   sensitive, and Heisenberg's guarantee is exactly their residence.
   Under sustained pressure refusal invites forced eviction (which
   looks like an attack and kills the enclave), so the policy degrades:
   retire the oldest members (FIFO batch, content-independent) and
   shrink the capacity so the set does not immediately regrow. *)
let balloon t n =
  t.balloon_calls <- t.balloon_calls + 1;
  if t.balloon_calls < 2 then 0
  else begin
    let released = ref 0 in
    let releasable () = set_size t > t.min_capacity in
    while !released < n && releasable () do
      retire_oldest t;
      incr released
    done;
    if !released > 0 then begin
      t.capacity <- max t.min_capacity (t.capacity - !released);
      Metrics.Counters.cell_incr t.c_degraded;
      emit t (fun () ->
          Trace.Event.Decision
            { policy = "preload"; action = "degrade-retire-members";
              vpages = [] })
    end;
    !released
  end

let policy t =
  {
    Runtime.pol_name = "preload";
    pol_on_miss = (fun vp sf -> on_miss t vp sf);
    pol_balloon = (fun n -> balloon t n);
  }
