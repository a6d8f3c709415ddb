type transition_mode = Full_exits | No_upcall | No_upcall_no_aex

let pp_transition_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Full_exits -> "as-measured"
    | No_upcall -> "no-upcall"
    | No_upcall_no_aex -> "no-upcall/AEX")

(* Pre-resolved counter cells for the per-access and per-transition hot
   paths: no string hashing on a TLB miss, fault, or SGX instruction.
   [c_fault] is indexed by [Types.fault_cause_index]. *)
type hot_counters = {
  c_tlb_miss : Metrics.Counters.cell;
  c_page_fault : Metrics.Counters.cell;
  c_fault : Metrics.Counters.cell array;
  c_ecreate : Metrics.Counters.cell;
  c_eadd : Metrics.Counters.cell;
  c_einit : Metrics.Counters.cell;
  c_aex : Metrics.Counters.cell;
  c_eresume : Metrics.Counters.cell;
  c_eenter : Metrics.Counters.cell;
  c_eexit : Metrics.Counters.cell;
  c_aex_elided : Metrics.Counters.cell;
  c_inenclave_resume : Metrics.Counters.cell;
  c_epa : Metrics.Counters.cell;
  c_eblock : Metrics.Counters.cell;
  c_etrack : Metrics.Counters.cell;
  c_ewb : Metrics.Counters.cell;
  c_eldu : Metrics.Counters.cell;
  c_eaug : Metrics.Counters.cell;
  c_eaccept : Metrics.Counters.cell;
  c_eacceptcopy : Metrics.Counters.cell;
  c_emodpr : Metrics.Counters.cell;
  c_emodt : Metrics.Counters.cell;
  c_eremove : Metrics.Counters.cell;
}

type t = {
  clock : Metrics.Clock.t;
  hot : hot_counters;
  epc : Epc.t;
  tlb : Tlb.t;
  sealer : Sim_crypto.Sealer.t;
  va_slots : Flat.t;
  mutable va_free : int array;
  mutable va_free_head : int;
  mutable va_free_tail : int;
  mutable va_next_slot : int;
  mutable va_frames : Types.frame list;
  mutable va_counter : int;
  mutable next_enclave_id : int;
  mutable next_base_vpage : Types.vpage;
  mutable mode : transition_mode;
  mutable tracer : Trace.Recorder.t option;
  (* Branch-trace store (LBR/BTB model): the last [branch_ring_capacity]
     enclave-mode control transfers as (enclave_id, vpage) records.  SGX
     does not flush it on AEX — the Branch Shadowing channel. *)
  branch_ring : (int * int) array;
  mutable branch_cursor : int;
}

let branch_ring_capacity = 32
let slots_per_va_page = 512

let hot_counters_of counters =
  let cell = Metrics.Counters.cell counters in
  {
    c_tlb_miss = cell "mmu.tlb_miss";
    c_page_fault = cell "cpu.page_fault";
    c_fault =
      Array.map
        (fun cause ->
          cell (Format.asprintf "mmu.fault.%a" Types.pp_fault_cause cause))
        Types.all_fault_causes;
    c_ecreate = cell "sgx.ecreate";
    c_eadd = cell "sgx.eadd";
    c_einit = cell "sgx.einit";
    c_aex = cell "sgx.aex";
    c_eresume = cell "sgx.eresume";
    c_eenter = cell "sgx.eenter";
    c_eexit = cell "sgx.eexit";
    c_aex_elided = cell "sgx.aex_elided";
    c_inenclave_resume = cell "sgx.inenclave_resume";
    c_epa = cell "sgx.epa";
    c_eblock = cell "sgx.eblock";
    c_etrack = cell "sgx.etrack";
    c_ewb = cell "sgx.ewb";
    c_eldu = cell "sgx.eldu";
    c_eaug = cell "sgx.eaug";
    c_eaccept = cell "sgx.eaccept";
    c_eacceptcopy = cell "sgx.eacceptcopy";
    c_emodpr = cell "sgx.emodpr";
    c_emodt = cell "sgx.emodt";
    c_eremove = cell "sgx.eremove";
  }

let create ?(model = Metrics.Cost_model.default) ?(mode = Full_exits) ~epc_frames () =
  let clock = Metrics.Clock.create model in
  {
    clock;
    hot = hot_counters_of (Metrics.Clock.counters clock);
    epc = Epc.create ~frames:epc_frames;
    tlb = Tlb.create ();
    sealer = Sim_crypto.Sealer.create ~master_key:"sgx-epc-paging-key";
    va_slots = Flat.create ();
    va_free = Array.make slots_per_va_page 0;
    va_free_head = 0;
    va_free_tail = 0;
    va_next_slot = 0;
    va_frames = [];
    va_counter = 0;
    next_enclave_id = 1;
    (* Leave page 0 unused so a 0 vaddr is never a valid enclave address. *)
    next_base_vpage = 0x10000;
    mode;
    tracer = None;
    branch_ring = Array.make branch_ring_capacity (-1, -1);
    branch_cursor = 0;
  }

(* Every swap store on the machine holds the sealer; it counts here,
   once, in their class. *)
let footprint t acc =
  Epc.footprint t.epc acc;
  Tlb.footprint t.tlb acc;
  Flat.footprint t.va_slots acc;
  Metrics.Words.once acc ~cls:Metrics.Words.Swap_stores t.sealer
    ~words:(Obj.reachable_words (Obj.repr t.sealer))

let model t = Metrics.Clock.model t.clock
let charge t n = Metrics.Clock.charge t.clock n
let counters t = Metrics.Clock.counters t.clock
let hot t = t.hot

let tracer t = t.tracer
let set_tracer t tr = t.tracer <- tr

let record_branch t ~enclave_id ~vpage =
  t.branch_ring.(t.branch_cursor mod branch_ring_capacity) <- (enclave_id, vpage);
  t.branch_cursor <- t.branch_cursor + 1

let drain_branches t ~enclave_id =
  let n = min t.branch_cursor branch_ring_capacity in
  let start = t.branch_cursor - n in
  let acc = ref [] in
  for i = start + n - 1 downto start do
    let eid, vp = t.branch_ring.(i mod branch_ring_capacity) in
    if eid = enclave_id then acc := vp :: !acc
  done;
  Array.fill t.branch_ring 0 branch_ring_capacity (-1, -1);
  t.branch_cursor <- 0;
  !acc

let trace_access : Types.access_kind -> Trace.Event.access = function
  | Types.Read -> Trace.Event.Read
  | Types.Write -> Trace.Event.Write
  | Types.Exec -> Trace.Event.Exec

let register_enclave t ~size_pages ~self_paging =
  let id = t.next_enclave_id in
  t.next_enclave_id <- id + 1;
  let base_vpage = t.next_base_vpage in
  (* Pad regions apart so out-of-range accesses are obvious bugs. *)
  t.next_base_vpage <- base_vpage + size_pages + 0x1000;
  Enclave.create ~id ~base_vpage ~size_pages ~self_paging ()

(* Versions are a monotonically increasing counter from 1: they fit a
   native int, so neither the counter nor the slot store boxes them. *)
let fresh_va_version t =
  t.va_counter <- t.va_counter + 1;
  t.va_counter

(* --- free-slot FIFO ring ----------------------------------------------- *)

(* A power-of-two int ring between absolute indices [head] and [tail],
   doubled when full; the oldest free slot is taken first. *)
let free_va_slots t = t.va_free_tail - t.va_free_head

let va_push t slot =
  let cap = Array.length t.va_free in
  if free_va_slots t = cap then begin
    let ring = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      ring.(i) <- t.va_free.((t.va_free_head + i) land (cap - 1))
    done;
    t.va_free <- ring;
    t.va_free_head <- 0;
    t.va_free_tail <- cap
  end;
  t.va_free.(t.va_free_tail land (Array.length t.va_free - 1)) <- slot;
  t.va_free_tail <- t.va_free_tail + 1

let iter_free_va_slots f t =
  for i = t.va_free_head to t.va_free_tail - 1 do
    f t.va_free.(i land (Array.length t.va_free - 1))
  done

let provision_va_page t ~frame =
  t.va_frames <- frame :: t.va_frames;
  for _ = 1 to slots_per_va_page do
    va_push t t.va_next_slot;
    t.va_next_slot <- t.va_next_slot + 1
  done

let take_va_slot t ~version =
  if free_va_slots t = 0 then -1
  else begin
    let slot = t.va_free.(t.va_free_head land (Array.length t.va_free - 1)) in
    t.va_free_head <- t.va_free_head + 1;
    Flat.set t.va_slots slot version;
    slot
  end

let read_va_slot t slot = Flat.find t.va_slots slot

let clear_va_slot t slot =
  if Flat.mem t.va_slots slot then begin
    Flat.remove t.va_slots slot;
    va_push t slot
  end
