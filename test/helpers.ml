(* Shared builders for the test suites. *)

open Sgx

let machine ?(mode = Machine.Full_exits) ?(epc_frames = 64) () =
  Machine.create ~mode ~epc_frames ()

let enclave_with_pages ?(self_paging = false) ?(pages = 16) ?(mapped = true) m =
  let enclave = Instructions.ecreate m ~size_pages:pages ~self_paging in
  let pt = Page_table.create () in
  for i = 0 to pages - 1 do
    let vp = enclave.Enclave.base_vpage + i in
    let data = Page_data.create () in
    Page_data.fill_int data (1000 + i);
    let frame =
      Instructions.eadd m enclave ~vpage:vp ~data ~perms:Types.perms_rwx
        ~ptype:Types.Pt_reg
    in
    if mapped then
      Page_table.map pt ~vpage:vp ~frame ~perms:Types.perms_rwx
        ~accessed:self_paging ~dirty:self_paging ()
  done;
  Instructions.einit m enclave;
  (enclave, pt)

(* An OS that must never be called (for fault-free paths). *)
let no_os : Cpu.os_callbacks =
  {
    handle_enclave_fault = (fun _ -> Alcotest.fail "unexpected fault to OS");
    handle_preempt = (fun ~enclave_id:_ -> ());
  }

(* An OS whose fault handler runs [f] then resumes. *)
let os_resuming m enclave f : Cpu.os_callbacks =
  {
    handle_enclave_fault =
      (fun report ->
        f report;
        match Instructions.eresume m enclave with
        | Ok () -> ()
        | Error `Pending_exception ->
          Instructions.enter_handler_and_resume m enclave);
    handle_preempt = (fun ~enclave_id:_ -> ());
  }

let vaddr_of enclave i = Types.vaddr_of_vpage (enclave.Enclave.base_vpage + i)

(* The full architectural eviction protocol for tests that evict a
   single page directly: provision VA capacity, block, track, write. *)
let ewb_protocol m enclave ~vpage =
  if Machine.free_va_slots m < 1 then
    (match Instructions.epa m with
    | Ok _ -> ()
    | Error `Epc_full -> Alcotest.fail "no EPC frame for a VA page");
  Instructions.eblock m enclave ~vpage;
  Instructions.etrack m enclave;
  Instructions.ewb m enclave ~vpage

(* A full self-paging system with a data region carved and managed. *)
let autarky_system ?(epc_frames = 256) ?(epc_limit = 128) ?(enclave_pages = 512)
    ?(budget = 96) () =
  Harness.System.create ~epc_frames ~epc_limit ~enclave_pages ~self_paging:true
    ~budget ()

let legacy_system ?(epc_frames = 256) ?(epc_limit = 128) ?(enclave_pages = 512) () =
  Harness.System.create ~epc_frames ~epc_limit ~enclave_pages ~self_paging:false ()

(* Words allocated by [f ()], minor and major heap together.  The minor
   collection first keeps [f] from triggering one, whose promotions
   would count as major allocation. *)
let words_allocated f =
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, _, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0)

(* The allocation checks hold for native code only: bytecode boxes
   every [Int64] intermediate. *)
let native = Sys.backend_type = Sys.Native

(* [f ()] raises [Invalid_argument] with a message naming [naming]. *)
let check_invalid_arg ~naming f =
  match f () with
  | _ -> Alcotest.failf "no Invalid_argument naming %s" naming
  | exception Invalid_argument msg ->
    let n = String.length naming in
    let rec names i =
      i + n <= String.length msg && (String.sub msg i n = naming || names (i + 1))
    in
    if not (names 0) then Alcotest.failf "Invalid_argument %S does not name %s" msg naming
