type t = {
  runtime : Runtime.t;
  oram_cache : Oram_cache.t;
  mutable balloon_calls : int;
  c_degraded : Metrics.Counters.cell;
}

let create ~runtime ~cache =
  {
    runtime;
    oram_cache = cache;
    balloon_calls = 0;
    c_degraded =
      Metrics.Counters.cell
        (Sgx.Machine.counters (Runtime.machine runtime))
        "rt.policy_degraded";
  }
let cache t = t.oram_cache

let emit t k =
  match Sgx.Machine.tracer (Runtime.machine t.runtime) with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(Runtime.enclave t.runtime).Sgx.Enclave.id
      ~actor:(Trace.Event.Policy "oram") (k ())

(* Ballooning: the cache and metadata are all sensitive, so a single
   memory-pressure upcall is refused outright.  Under *sustained*
   pressure refusal just invites forced eviction (which would look like
   an attack and kill the enclave), so the policy degrades instead:
   shrink the ORAM cache — dirty slots are written back through the
   oblivious protocol, leaking nothing — and hand the freed cache pages
   back to the OS. *)
let balloon t n =
  t.balloon_calls <- t.balloon_calls + 1;
  if t.balloon_calls < 2 then 0
  else
    match Oram_cache.shrink t.oram_cache ~pages:n with
    | [] -> 0
    | vs ->
      Metrics.Counters.cell_incr t.c_degraded;
      emit t (fun () ->
          Trace.Event.Decision
            { policy = "oram"; action = "degrade-shrink-cache"; vpages = vs });
      Pager.evict (Runtime.pager t.runtime) vs;
      List.length vs

let policy t =
  {
    Runtime.pol_name = "oram";
    pol_balloon = (fun n -> balloon t n);
    (* The cache and its tree are counted by whoever built them. *)
    pol_footprint = ignore;
    pol_on_miss =
      (fun vp _sf ->
        let reason =
          Printf.sprintf
            "fault on pinned page 0x%x under ORAM policy (attack or \
             misconfiguration)"
            vp
        in
        emit t (fun () -> Trace.Event.Terminate { reason });
        Sgx.Enclave.terminate (Runtime.enclave t.runtime) ~reason);
  }

let accessor t ~fallback vaddr kind =
  if Oram_cache.in_data_region t.oram_cache vaddr then
    Oram_cache.access t.oram_cache vaddr kind
  else fallback vaddr kind

let uncached_accessor ~oram ~data_base_vpage ~n_pages ~fallback vaddr kind =
  let vp = Sgx.Types.vpage_of_vaddr vaddr in
  if vp >= data_base_vpage && vp < data_base_vpage + n_pages then begin
    let block = vp - data_base_vpage in
    Oram.Path_oram.access oram ~block (fun _data -> ());
    ignore kind
  end
  else fallback vaddr kind
