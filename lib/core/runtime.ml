type vpage = Sgx.Types.vpage

type policy = {
  pol_name : string;
  pol_on_miss : vpage -> Sgx.Types.ssa_fault -> unit;
  pol_balloon : int -> int;
}

type t = {
  rt_machine : Sgx.Machine.t;
  rt_enclave : Sgx.Enclave.t;
  rt_os : Os_iface.t;
  rt_pager : Pager.t;
  enclave_managed : Sgx.Flat.t;  (* vpage -> 1 when enclave-managed *)
  mutable rt_policy : policy;
  mutable faults : int;
  (* Interned at construction: the fault handler runs on every miss. *)
  c_handler_invocations : Metrics.Counters.cell;
  c_attack_detected : Metrics.Counters.cell;
  c_legitimate_miss : Metrics.Counters.cell;
  c_policy_no_fetch : Metrics.Counters.cell;
  c_forwarded_to_os : Metrics.Counters.cell;
  c_fetch_retries : Metrics.Counters.cell;
  c_balloon_upcalls : Metrics.Counters.cell;
  c_balloon_released : Metrics.Counters.cell;
}

let machine t = t.rt_machine
let enclave t = t.rt_enclave
let os t = t.rt_os
let pager t = t.rt_pager
let policy t = t.rt_policy
let set_policy t p = t.rt_policy <- p
let is_enclave_managed t vp = Sgx.Flat.mem t.enclave_managed vp
let faults_handled t = t.faults

let incr _t cell = Metrics.Counters.cell_incr cell

(* In-enclave tracing: these events never leave the enclave and are
   excluded from the OS-visible projection. *)
let emit t ~actor k =
  match Sgx.Machine.tracer t.rt_machine with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr ~enclave:t.rt_enclave.Sgx.Enclave.id ~actor (k ())

let terminate t ~reason =
  emit t ~actor:Trace.Event.Runtime (fun () -> Trace.Event.Terminate { reason });
  Sgx.Enclave.terminate t.rt_enclave ~reason

let pinned_policy t =
  {
    pol_name = "pinned";
    pol_on_miss =
      (fun vp _sf ->
        terminate t
          ~reason:
            (Printf.sprintf
               "fault on pinned enclave-managed page 0x%x (attack or misconfiguration)"
               vp));
    (* Every pinned page is sensitive: refuse to deflate. *)
    pol_balloon = (fun _ -> 0);
  }

(* The trusted exception handler, invoked (by hardware guarantee) on
   every page fault.  See the module documentation for the cases. *)
let handle_exception t (enclave : Sgx.Enclave.t) =
  let cm = Sgx.Machine.model t.rt_machine in
  Sgx.Machine.charge t.rt_machine cm.runtime_handler;
  incr t t.c_handler_invocations;
  emit t ~actor:Trace.Event.Runtime (fun () ->
      Trace.Event.Handler { event = "exception-handler" });
  match Stack.top enclave.tcs.ssa with
  | exception Stack.Empty ->
    (* §5.3: the handler can only legitimately run with fault information
       in the SSA; spurious entry is an attack. *)
    terminate t
      ~reason:"exception handler entered with empty SSA (re-entrancy attack)"
  | sf ->
    t.faults <- t.faults + 1;
    let vp = Sgx.Types.vpage_of_vaddr sf.sf_vaddr in
    if is_enclave_managed t vp then
      if Pager.resident t.rt_pager vp then begin
        incr t t.c_attack_detected;
        emit t ~actor:Trace.Event.Runtime (fun () ->
            Trace.Event.Decision
              { policy = t.rt_policy.pol_name; action = "attack-detected";
                vpages = [ vp ] });
        terminate t
          ~reason:
            (Format.asprintf
               "OS-induced fault (%a) on resident enclave-managed page 0x%x: \
                controlled-channel attack"
               Sgx.Types.pp_fault_cause sf.sf_cause vp)
      end
      else begin
        incr t t.c_legitimate_miss;
        t.rt_policy.pol_on_miss vp sf;
        if not (Pager.resident t.rt_pager vp) then begin
          (* An OS-triggerable condition (a policy starved of frames, or
             an OS lying about what it fetched) must stay a modeled
             termination, never an OCaml exception escaping the trusted
             fault handler. *)
          incr t t.c_policy_no_fetch;
          terminate t
            ~reason:
              (Printf.sprintf
                 "policy %s did not fetch faulting page 0x%x (OS starvation \
                  or broken contract)"
                 t.rt_policy.pol_name vp)
        end
      end
    else begin
      (* OS-managed page: forward to the OS pager (ordinary demand
         paging on insensitive pages).  Transient EPC exhaustion is
         retried with backoff; blob faults are detected attacks. *)
      incr t t.c_forwarded_to_os;
      (* Inlined emit: the thunk form would capture [vp] and allocate a
         closure per forwarded fault even with tracing off. *)
      (match Sgx.Machine.tracer t.rt_machine with
      | None -> ()
      | Some tr ->
        Trace.Recorder.emit tr ~enclave:t.rt_enclave.Sgx.Enclave.id
          ~actor:Trace.Event.Runtime
          (Trace.Event.Decision
             { policy = "runtime"; action = "forward-to-os"; vpages = [ vp ] }));
      let max_attempts = 6 in
      let rec forward attempt =
        match t.rt_os.page_in_os_managed vp with
        | Ok () -> ()
        | Error `Epc_exhausted when attempt < max_attempts ->
          incr t t.c_fetch_retries;
          Sgx.Machine.charge t.rt_machine (cm.exitless_call * (1 lsl attempt));
          forward (attempt + 1)
        | Error e ->
          incr t t.c_attack_detected;
          terminate t
            ~reason:
              (Format.asprintf
                 "OS failed to page in OS-managed page 0x%x: %a" vp
                 Os_iface.pp_fetch_error e)
      in
      forward 0
    end

let create ~machine ~enclave ~os ~mech ~budget =
  let cell = Metrics.Counters.cell (Sgx.Machine.counters machine) in
  let t =
    {
      rt_machine = machine;
      rt_enclave = enclave;
      rt_os = os;
      rt_pager = Pager.create ~machine ~enclave ~os ~mech ~budget;
      enclave_managed = Sgx.Flat.create ();
      rt_policy =
        { pol_name = "uninitialized"; pol_on_miss = (fun _ _ -> ());
          pol_balloon = (fun _ -> 0) };
      faults = 0;
      c_handler_invocations = cell "rt.handler_invocations";
      c_attack_detected = cell "rt.attack_detected";
      c_legitimate_miss = cell "rt.legitimate_miss";
      c_policy_no_fetch = cell "rt.policy_no_fetch";
      c_forwarded_to_os = cell "rt.forwarded_to_os";
      c_fetch_retries = cell "rt.fetch_retries";
      c_balloon_upcalls = cell "rt.balloon_upcalls";
      c_balloon_released = cell "rt.balloon_released";
    }
  in
  t.rt_policy <- pinned_policy t;
  enclave.entry <- handle_exception t;
  t

let balloon_release t ~pages =
  let cm = Sgx.Machine.model t.rt_machine in
  Sgx.Machine.charge t.rt_machine cm.runtime_handler;
  incr t t.c_balloon_upcalls;
  let released = t.rt_policy.pol_balloon pages in
  Metrics.Counters.cell_add t.c_balloon_released released;
  emit t ~actor:Trace.Event.Runtime (fun () ->
      Trace.Event.Decision
        { policy = t.rt_policy.pol_name; action = "balloon-release"; vpages = [] });
  released

let mark_enclave_managed t pages =
  List.iter (fun vp -> Sgx.Flat.set t.enclave_managed vp 1) pages;
  let statuses = t.rt_os.set_enclave_managed pages in
  Pager.note_initial_residence t.rt_pager statuses

let mark_os_managed t pages =
  List.iter (fun vp -> Sgx.Flat.remove t.enclave_managed vp) pages;
  t.rt_os.set_os_managed pages
