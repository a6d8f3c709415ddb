type eviction = [ `Fifo | `Fault_frequency ]

type t = {
  runtime : Runtime.t;
  max_faults_per_unit : int;
  evict_batch : int;
  eviction : eviction;
  min_budget : int;
  fault_counts : Sgx.Flat.t;  (* vpage -> faults observed on it *)
  mutable window : int;
  mutable total : int;
  mutable balloon_calls : int;
  (* Built once at construction so the miss path passes a preallocated
     victim generator to [Pager.make_room] instead of closing over the
     pager on every fault. *)
  mutable victims_fn : unit -> Sgx.Types.vpage list;
  c_degraded : Metrics.Counters.cell;
}

let emit t k =
  match Sgx.Machine.tracer (Runtime.machine t.runtime) with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(Runtime.enclave t.runtime).Sgx.Enclave.id
      ~actor:(Trace.Event.Policy "rate-limit") (k ())

let progress t = t.window <- 0
let faults_in_window t = t.window
let total_faults t = t.total

let fault_count t vp = Sgx.Flat.find_default t.fault_counts vp 0

let victims t pager () =
  match t.eviction with
  | `Fifo -> Pager.oldest_residents pager t.evict_batch
  | `Fault_frequency ->
    (* Consider a wider window of old pages and keep the frequently
       faulting (hot) ones resident: evict the least-faulted. *)
    let candidates = Pager.oldest_residents pager (4 * t.evict_batch) in
    let ranked =
      List.stable_sort
        (fun a b -> Int.compare (fault_count t a) (fault_count t b))
        candidates
    in
    List.filteri (fun i _ -> i < t.evict_batch) ranked

let create ~runtime ?(max_faults_per_unit = max_int) ?(evict_batch = 16)
    ?(eviction = `Fifo) ?(min_budget = 16) () =
  if max_faults_per_unit <= 0 then
    invalid_arg "Policy_rate_limit.create: max_faults_per_unit must be positive";
  if evict_batch <= 0 then
    invalid_arg "Policy_rate_limit.create: evict_batch must be positive";
  if min_budget <= 0 then
    invalid_arg "Policy_rate_limit.create: min_budget must be positive";
  let t =
    {
      runtime;
      max_faults_per_unit;
      evict_batch;
      eviction;
      min_budget;
      fault_counts = Sgx.Flat.create ();
      window = 0;
      total = 0;
      balloon_calls = 0;
      victims_fn = (fun () -> []);
      c_degraded =
        Metrics.Counters.cell
          (Sgx.Machine.counters (Runtime.machine runtime))
          "rt.policy_degraded";
    }
  in
  t.victims_fn <- victims t (Runtime.pager runtime);
  t

let on_miss t vp _sf =
  t.window <- t.window + 1;
  t.total <- t.total + 1;
  Sgx.Flat.set t.fault_counts vp (fault_count t vp + 1);
  if t.window > t.max_faults_per_unit then begin
    let reason =
      Printf.sprintf
        "page-fault rate limit exceeded (%d faults without progress): \
         suspected controlled-channel attack"
        t.window
    in
    emit t (fun () -> Trace.Event.Terminate { reason });
    Sgx.Enclave.terminate (Runtime.enclave t.runtime) ~reason
  end;
  (* Inlined emit: the thunk form would capture [vp] and allocate a
     closure per miss even with tracing off. *)
  (match Sgx.Machine.tracer (Runtime.machine t.runtime) with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(Runtime.enclave t.runtime).Sgx.Enclave.id
      ~actor:(Trace.Event.Policy "rate-limit")
      (Trace.Event.Decision
         { policy = "rate-limit"; action = "demand-fetch"; vpages = [ vp ] }));
  let pager = Runtime.pager t.runtime in
  Pager.make_room pager ~incoming:1 ~victims:t.victims_fn;
  Pager.fetch_one pager vp

(* Ballooning: FIFO/frequency batch eviction leaks no more than the
   policy's normal eviction traffic.  Under sustained pressure (a
   second and further upcalls) the policy also shrinks the pager budget
   toward [min_budget] so subsequent paging stays inside what the OS
   can actually provide — degraded throughput instead of a starvation
   termination. *)
let balloon t n =
  t.balloon_calls <- t.balloon_calls + 1;
  let pager = Runtime.pager t.runtime in
  let released = ref 0 in
  let stuck = ref false in
  while !released < n && not !stuck do
    match t.victims_fn () with
    | [] -> stuck := true
    | vs ->
      let take = List.filteri (fun i _ -> i < n - !released) vs in
      Pager.evict pager take;
      released := !released + List.length take
  done;
  if t.balloon_calls >= 2 then begin
    let shrunk = max t.min_budget (Pager.budget pager - n) in
    if shrunk < Pager.budget pager then begin
      Pager.set_budget pager shrunk;
      Metrics.Counters.cell_incr t.c_degraded;
      emit t (fun () ->
          Trace.Event.Decision
            { policy = "rate-limit"; action = "degrade-shrink-budget";
              vpages = [] })
    end
  end;
  !released

let policy t =
  { Runtime.pol_name = "rate-limit";
    pol_on_miss = (fun vp sf -> on_miss t vp sf);
    pol_balloon = (fun n -> balloon t n);
    pol_footprint = Sgx.Flat.footprint t.fault_counts }
