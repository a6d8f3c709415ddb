(* PCMD: perms in bits 0-2, page type in bits 3-4, VA slot in bits
   5-34, enclave id from bit 35. *)
let pcmd_slot_bits = 30
let pcmd_id_bits = 62 - 5 - pcmd_slot_bits

let pcmd ~enclave_id ~perms ~ptype ~va_slot =
  if va_slot lsr pcmd_slot_bits <> 0 || enclave_id lsr pcmd_id_bits <> 0 then
    Types.sgx_errorf "PCMD: enclave %d / VA slot %d out of range" enclave_id va_slot;
  (((enclave_id lsl pcmd_slot_bits) lor va_slot) lsl 5)
  lor (Epc.ptype_code ptype lsl 3)
  lor Types.perms_bits perms

let pcmd_perms p = Types.perms_of_bits p
let pcmd_ptype p = Epc.ptype_of_code ((p lsr 3) land 3)
let pcmd_va_slot p = (p lsr 5) land ((1 lsl pcmd_slot_bits) - 1)
let pcmd_enclave_id p = p lsr (5 + pcmd_slot_bits)

type eldu_error = [ `Mac_mismatch | `Replayed | `Epc_full ]

let pp_eldu_error ppf = function
  | `Mac_mismatch -> Format.pp_print_string ppf "MAC mismatch"
  | `Replayed -> Format.pp_print_string ppf "replayed page"
  | `Epc_full -> Format.pp_print_string ppf "EPC full"

let incr cell = Metrics.Counters.cell_incr cell

(* Transition tracing.  Taking the event as a thunk keeps the disabled
   path to a single branch: no payload is built unless a recorder is
   installed. *)
let emit m ~enclave_id k =
  match Machine.tracer m with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr ~enclave:enclave_id ~actor:Trace.Event.Hw (k ())

let ecreate m ~size_pages ~self_paging =
  incr (Machine.hot m).Machine.c_ecreate;
  Machine.register_enclave m ~size_pages ~self_paging

(* Unboxed residency probe: -1 when not resident. *)
let find_frame_packed m (enclave : Enclave.t) ~vpage =
  Epc.frame_of_packed Machine.(m.epc) ~enclave_id:enclave.id ~vpage

let require_frame m enclave ~vpage ~who =
  let frame = find_frame_packed m enclave ~vpage in
  if frame >= 0 then frame
  else Types.sgx_errorf "%s: enclave %d page 0x%x not resident" who enclave.id vpage

let eadd m (enclave : Enclave.t) ~vpage ~data ~perms ~ptype =
  (match enclave.state with
  | Enclave.Created -> ()
  | _ -> Types.sgx_errorf "EADD: enclave %d already initialized" enclave.id);
  if not (Enclave.contains_vpage enclave vpage) then
    Types.sgx_errorf "EADD: page 0x%x outside enclave %d" vpage enclave.id;
  let cm = Machine.model m in
  let frame = Epc.alloc m.epc in
  if frame < 0 then Types.sgx_errorf "EADD: EPC exhausted";
  Epc.bind m.epc ~frame ~enclave_id:enclave.id ~vpage ~perms ~ptype ~pending:false;
  Epc.set_data m.epc frame (Page_data.copy data);
  Machine.charge m cm.eadd;
  incr (Machine.hot m).Machine.c_eadd;
  frame

let einit m (enclave : Enclave.t) =
  (match enclave.state with
  | Enclave.Created -> enclave.state <- Enclave.Initialized
  | _ -> Types.sgx_errorf "EINIT: enclave %d not in created state" enclave.id);
  incr (Machine.hot m).Machine.c_einit

(* --- Entry/exit/fault delivery ------------------------------------- *)

let aex m (enclave : Enclave.t) ~reason =
  let cm = Machine.model m in
  (match reason with
  | `Fault sf ->
    if Stack.length enclave.tcs.ssa >= enclave.tcs.ssa_frames then
      Enclave.terminate enclave ~reason:"SSA stack overflow (fault storm)";
    Stack.push sf enclave.tcs.ssa;
    if enclave.self_paging then enclave.tcs.pending_exception <- true
  | `Interrupt -> ());
  enclave.in_enclave <- false;
  Tlb.flush m.tlb;
  Machine.charge m cm.aex;
  incr (Machine.hot m).Machine.c_aex;
  (* Inline tracer match: the thunk form would capture [reason] and
     allocate a closure on every AEX even with tracing off. *)
  match Machine.tracer m with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr ~enclave:enclave.id ~actor:Trace.Event.Hw
      (Trace.Event.Aex { interrupt = reason = `Interrupt })

let eresume m (enclave : Enclave.t) =
  let cm = Machine.model m in
  Machine.charge m cm.eresume;
  incr (Machine.hot m).Machine.c_eresume;
  if enclave.self_paging && enclave.tcs.pending_exception then begin
    emit m ~enclave_id:enclave.id (fun () -> Trace.Event.Eresume { ok = false });
    Error `Pending_exception
  end
  else begin
    Enclave.assert_runnable enclave;
    if not (Stack.is_empty enclave.tcs.ssa) then ignore (Stack.pop enclave.tcs.ssa);
    Tlb.flush m.tlb;
    enclave.in_enclave <- true;
    emit m ~enclave_id:enclave.id (fun () -> Trace.Event.Eresume { ok = true });
    Ok ()
  end

let enter_handler_and_resume m (enclave : Enclave.t) =
  let cm = Machine.model m in
  Enclave.assert_runnable enclave;
  (* EENTER: clears the pending-exception flag and runs the trusted
     entry point (the runtime's exception handler). *)
  enclave.tcs.pending_exception <- false;
  enclave.in_enclave <- true;
  Tlb.flush m.tlb;
  Machine.charge m cm.eenter;
  incr (Machine.hot m).Machine.c_eenter;
  emit m ~enclave_id:enclave.id (fun () -> Trace.Event.Eenter);
  enclave.entry enclave;
  (match m.mode with
  | Machine.Full_exits ->
    (* EEXIT to the stub, then ERESUME the saved frame. *)
    Machine.charge m cm.eexit;
    incr (Machine.hot m).Machine.c_eexit;
    emit m ~enclave_id:enclave.id (fun () -> Trace.Event.Eexit);
    enclave.in_enclave <- false;
    Tlb.flush m.tlb;
    Machine.charge m cm.eresume;
    incr (Machine.hot m).Machine.c_eresume;
    emit m ~enclave_id:enclave.id (fun () -> Trace.Event.Eresume { ok = true });
    Tlb.flush m.tlb
  | Machine.No_upcall | Machine.No_upcall_no_aex ->
    (* Proposed in-enclave ERESUME variant: pop the SSA without leaving. *)
    Machine.charge m cm.inenclave_resume;
    incr (Machine.hot m).Machine.c_inenclave_resume;
    emit m ~enclave_id:enclave.id (fun () ->
        Trace.Event.Handler { event = "inenclave-resume" }));
  if not (Stack.is_empty enclave.tcs.ssa) then ignore (Stack.pop enclave.tcs.ssa);
  enclave.in_enclave <- true

let deliver_fault_in_enclave m (enclave : Enclave.t) sf =
  let cm = Machine.model m in
  Enclave.assert_runnable enclave;
  if Stack.length enclave.tcs.ssa >= enclave.tcs.ssa_frames then
    Enclave.terminate enclave ~reason:"SSA stack overflow (fault storm)";
  Stack.push sf enclave.tcs.ssa;
  (* The hardware simulates a nested re-entry to the handler: no AEX, no
     OS involvement, TLB preserved. *)
  Machine.charge m cm.aex_elided_entry;
  incr (Machine.hot m).Machine.c_aex_elided;
  emit m ~enclave_id:enclave.id (fun () ->
      Trace.Event.Handler { event = "aex-elided-entry" });
  enclave.entry enclave;
  Machine.charge m cm.inenclave_resume;
  incr (Machine.hot m).Machine.c_inenclave_resume;
  emit m ~enclave_id:enclave.id (fun () ->
      Trace.Event.Handler { event = "inenclave-resume" });
  if not (Stack.is_empty enclave.tcs.ssa) then ignore (Stack.pop enclave.tcs.ssa)

let eenter_run m (enclave : Enclave.t) f =
  let cm = Machine.model m in
  Enclave.assert_runnable enclave;
  enclave.tcs.pending_exception <- false;
  enclave.in_enclave <- true;
  Tlb.flush m.tlb;
  Machine.charge m cm.eenter;
  incr (Machine.hot m).Machine.c_eenter;
  emit m ~enclave_id:enclave.id (fun () -> Trace.Event.Eenter);
  let finish () =
    Machine.charge m cm.eexit;
    incr (Machine.hot m).Machine.c_eexit;
    emit m ~enclave_id:enclave.id (fun () -> Trace.Event.Eexit);
    enclave.in_enclave <- false;
    Tlb.flush m.tlb
  in
  match f () with
  | result ->
    finish ();
    result
  | exception e ->
    finish ();
    raise e

(* --- SGXv1 paging --------------------------------------------------- *)

let epa m =
  let cm = Machine.model m in
  let frame = Epc.alloc m.epc in
  if frame < 0 then Error `Epc_full
  else begin
    Epc.bind ~track_reverse:false m.epc ~frame ~enclave_id:(-1) ~vpage:(-1)
      ~perms:Types.perms_ro ~ptype:Types.Pt_va ~pending:false;
    Machine.provision_va_page m ~frame;
    Machine.charge m cm.epa;
    incr (Machine.hot m).Machine.c_epa;
    Ok frame
  end

let eblock m (enclave : Enclave.t) ~vpage =
  let cm = Machine.model m in
  let frame = require_frame m enclave ~vpage ~who:"EBLOCK" in
  if not (Epc.blocked (Epc.entry m.epc frame)) then begin
    Epc.set_blocked m.epc frame true;
    enclave.blocked_since_track <- enclave.blocked_since_track + 1
  end;
  Tlb.flush_page m.tlb vpage;
  Machine.charge m cm.eblock;
  incr (Machine.hot m).Machine.c_eblock

let etrack m (enclave : Enclave.t) =
  let cm = Machine.model m in
  (* On the single simulated core the IPI round retires immediately:
     flush the TLB and charge the shootdown. *)
  Tlb.flush m.tlb;
  enclave.blocked_since_track <- 0;
  Machine.charge m (cm.etrack + cm.tlb_shootdown);
  incr (Machine.hot m).Machine.c_etrack

let seal_page sealer ~vpage ~version plaintext =
  Sim_crypto.Sealer.seal sealer
    ~vaddr:(Int64.of_int (Types.vaddr_of_vpage vpage))
    ~version:(Int64.of_int version) plaintext

let ewb m (enclave : Enclave.t) ~vpage =
  let cm = Machine.model m in
  let frame = require_frame m enclave ~vpage ~who:"EWB" in
  let entry = Epc.entry m.epc frame in
  if Epc.pending entry || Epc.modified entry then
    Types.sgx_errorf "EWB: page 0x%x in transient state" vpage;
  if not (Epc.blocked entry) then
    Types.sgx_errorf "EWB: page 0x%x not blocked (run EBLOCK)" vpage;
  if enclave.blocked_since_track > 0 then
    Types.sgx_errorf "EWB: tracking epoch not retired (run ETRACK)";
  let version = Machine.fresh_va_version m in
  let slot = Machine.take_va_slot m ~version in
  if slot < 0 then Types.sgx_errorf "EWB: no free version-array slot (run EPA)";
  let row =
    seal_page m.sealer ~vpage ~version (Page_data.to_bytes (Epc.data m.epc frame))
  in
  let pcmd =
    pcmd ~enclave_id:enclave.id ~perms:(Epc.perms entry) ~ptype:(Epc.ptype entry)
      ~va_slot:slot
  in
  Epc.release m.epc frame;
  Machine.charge m (cm.ewb + Metrics.Cost_model.hw_page_crypto cm);
  incr (Machine.hot m).Machine.c_ewb;
  (row, pcmd)

let eldu m (enclave : Enclave.t) ~vpage row ~pcmd =
  let cm = Machine.model m in
  let owner = pcmd_enclave_id pcmd in
  if owner <> enclave.id then
    Types.sgx_errorf "ELDU: page belongs to enclave %d, not %d" owner enclave.id;
  Machine.charge m (cm.eldu + Metrics.Cost_model.hw_page_crypto cm);
  incr (Machine.hot m).Machine.c_eldu;
  let slot = pcmd_va_slot pcmd in
  let expected = Machine.read_va_slot m slot in
  if expected < 0 then Error `Replayed
  else
    match
      Sim_crypto.Sealer.unseal m.sealer
        ~vaddr:(Int64.of_int (Types.vaddr_of_vpage vpage))
        ~expected_version:(Int64.of_int expected) row
    with
    | Error Sim_crypto.Sealer.Mac_mismatch -> Error `Mac_mismatch
    | Error Sim_crypto.Sealer.Replayed -> Error `Replayed
    | Ok plaintext ->
      let frame = Epc.alloc m.epc in
      if frame < 0 then Error `Epc_full
      else begin
        Epc.bind m.epc ~frame ~enclave_id:enclave.id ~vpage ~perms:(pcmd_perms pcmd)
          ~ptype:(pcmd_ptype pcmd) ~pending:false;
        Epc.set_data m.epc frame (Page_data.of_bytes plaintext);
        Machine.clear_va_slot m slot;
        Ok frame
      end

let reserve_swap_slot m (enclave : Enclave.t) ~vpage ~perms ~ptype =
  if not (Enclave.contains_vpage enclave vpage) then
    Types.sgx_errorf "reserve_swap_slot: page 0x%x outside enclave %d" vpage
      enclave.id;
  let version = Machine.fresh_va_version m in
  let slot = Machine.take_va_slot m ~version in
  if slot < 0 then
    Types.sgx_errorf "reserve_swap_slot: no free version-array slot (run EPA)";
  (version, pcmd ~enclave_id:enclave.id ~perms ~ptype ~va_slot:slot)

(* --- SGXv2 dynamic memory ------------------------------------------- *)

let eaug m (enclave : Enclave.t) ~vpage =
  let cm = Machine.model m in
  if not (Enclave.contains_vpage enclave vpage) then
    Types.sgx_errorf "EAUG: page 0x%x outside enclave %d" vpage enclave.id;
  if find_frame_packed m enclave ~vpage >= 0 then
    Types.sgx_errorf "EAUG: page 0x%x already resident" vpage;
  let frame = Epc.alloc m.epc in
  if frame < 0 then Error `Epc_full
  else begin
    Epc.bind m.epc ~frame ~enclave_id:enclave.id ~vpage ~perms:Types.perms_rw
      ~ptype:Types.Pt_reg ~pending:true;
    (* A fresh zero page: the enclave may accept it as is and write
       through it, so it must not be the EPC's shared free-frame page. *)
    Epc.set_data m.epc frame (Page_data.create ());
    Machine.charge m cm.eaug;
    incr (Machine.hot m).Machine.c_eaug;
    Ok frame
  end

let eaccept m (enclave : Enclave.t) ~vpage =
  let cm = Machine.model m in
  let frame = require_frame m enclave ~vpage ~who:"EACCEPT" in
  let entry = Epc.entry m.epc frame in
  if not (Epc.pending entry || Epc.modified entry) then
    Types.sgx_errorf "EACCEPT: page 0x%x has nothing to accept" vpage;
  Epc.set_pending m.epc frame false;
  Epc.set_modified m.epc frame false;
  Machine.charge m cm.eaccept;
  incr (Machine.hot m).Machine.c_eaccept

let eacceptcopy m (enclave : Enclave.t) ~vpage ~data =
  let cm = Machine.model m in
  let frame = require_frame m enclave ~vpage ~who:"EACCEPTCOPY" in
  if not (Epc.pending (Epc.entry m.epc frame)) then
    Types.sgx_errorf "EACCEPTCOPY: page 0x%x not pending" vpage;
  Epc.set_pending m.epc frame false;
  Epc.set_perms m.epc frame Types.perms_rw;
  Epc.set_data m.epc frame data;
  Machine.charge m cm.eacceptcopy;
  incr (Machine.hot m).Machine.c_eacceptcopy

let emodpr m (enclave : Enclave.t) ~vpage ~perms =
  let cm = Machine.model m in
  let frame = require_frame m enclave ~vpage ~who:"EMODPR" in
  let entry = Epc.entry m.epc frame in
  if Epc.pending entry then Types.sgx_errorf "EMODPR: page 0x%x pending" vpage;
  if not (Types.perms_subset perms (Epc.perms entry)) then
    Types.sgx_errorf "EMODPR: cannot extend permissions of page 0x%x" vpage;
  Epc.set_perms m.epc frame perms;
  Epc.set_modified m.epc frame true;
  (* OS-side TLB shootdown required for the restriction to take effect. *)
  Tlb.flush_page m.tlb vpage;
  Machine.charge m (cm.emodpr + cm.tlb_shootdown);
  incr (Machine.hot m).Machine.c_emodpr

let emodt m (enclave : Enclave.t) ~vpage =
  let cm = Machine.model m in
  let frame = require_frame m enclave ~vpage ~who:"EMODT" in
  if Epc.pending (Epc.entry m.epc frame) then
    Types.sgx_errorf "EMODT: page 0x%x pending" vpage;
  Epc.set_ptype m.epc frame Types.Pt_trim;
  Epc.set_modified m.epc frame true;
  Tlb.flush_page m.tlb vpage;
  Machine.charge m (cm.emodt + cm.tlb_shootdown);
  incr (Machine.hot m).Machine.c_emodt

let eremove m (enclave : Enclave.t) ~vpage =
  let cm = Machine.model m in
  let frame = require_frame m enclave ~vpage ~who:"EREMOVE" in
  let entry = Epc.entry m.epc frame in
  let enclave_dead = match enclave.state with Enclave.Dead _ -> true | _ -> false in
  if not (enclave_dead || (Epc.ptype entry = Types.Pt_trim && not (Epc.modified entry)))
  then
    Types.sgx_errorf "EREMOVE: page 0x%x not trimmed and accepted" vpage;
  Epc.release m.epc frame;
  Machine.charge m cm.eremove;
  incr (Machine.hot m).Machine.c_eremove

let page_data m (enclave : Enclave.t) ~vpage =
  let frame = find_frame_packed m enclave ~vpage in
  if frame >= 0 then Some (Epc.data m.epc frame) else None
