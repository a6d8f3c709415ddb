(* Fault codes for the unboxed translate path: 0 is success, a fault is
   [-(1 + Types.fault_cause_index cause)].  Packed PTEs are >= 0, so
   [walk_code] can return either a packed PTE or a fault code in one
   int. *)

let code_not_present = -1       (* Not_present *)
let code_perm_base = -2         (* Permission kind: -2 - access_kind_index *)
let code_epcm_mismatch = -5
let code_epcm_pending = -6
let code_ad_clear = -7
let code_non_epc = -8

let cause_of_code code = Types.all_fault_causes.(-code - 1)

(* The SGX + Autarky walk over packed PTEs.  Returns the packed PTE
   (pre-writeback) on success, a fault code on failure.  Allocates
   nothing on any path. *)
let walk_code (m : Machine.t) (pt : Page_table.t) (enclave : Enclave.t) vp kind =
  let p = Page_table.find_packed pt vp in
  if p < 0 || not (Page_table.p_present p) then code_not_present
  else if not (Page_table.p_allows p kind) then
    code_perm_base - Types.access_kind_index kind
  else begin
    let frame = Page_table.p_frame p in
    let epcm = Machine.(m.epc) in
    if frame < 0 || frame >= Epc.total_frames epcm then code_non_epc
    else
      let e = Epc.entry epcm frame in
      if not (Epc.valid e) || Epc.enclave_id e <> enclave.id || Epc.vpage e <> vp
      then code_epcm_mismatch
      else if Epc.pending e || Epc.modified e then code_epcm_pending
      else if Epc.blocked e then code_not_present
      else if not (Types.bits_allow (Epc.perm_bits e) kind) then
        code_perm_base - Types.access_kind_index kind
      else if enclave.self_paging then begin
        (* Autarky: the fetched PTE's A/D bits must already be set;
           otherwise it is treated as invalid. No writeback occurs. *)
        Machine.charge m (Machine.model m).ad_check;
        if Page_table.p_accessed p && Page_table.p_dirty p then p
        else code_ad_clear
      end
      else begin
        (* Legacy paging: the walk sets accessed (and dirty on write),
           observable by the OS — the stealthy channel. *)
        Page_table.set_ad pt vp ~write:(kind = Types.Write);
        p
      end
  end

let os_report (enclave : Enclave.t) vaddr kind =
  if enclave.self_paging then
    (* §5.1.2: hide the address and access type entirely; report a read
       fault at the enclave base. *)
    {
      Types.fr_enclave_id = enclave.id;
      fr_vaddr = Enclave.base_vaddr enclave;
      fr_access = Types.Read;
    }
  else
    (* Stock SGX: the page offset is masked but the page is visible. *)
    {
      Types.fr_enclave_id = enclave.id;
      fr_vaddr = Types.vaddr_of_vpage (Types.vpage_of_vaddr vaddr);
      fr_access = kind;
    }

(* One enclave-mode access; 0 on success, a fault code otherwise.  The
   TLB-hit and walk-hit paths allocate zero words. *)
let translate_code m pt (enclave : Enclave.t) vaddr kind =
  if not (Enclave.contains_vaddr enclave vaddr) then
    Types.sgx_errorf "MMU: vaddr 0x%x outside enclave %d" vaddr enclave.id;
  let cm = Machine.model m in
  let vp = Types.vpage_of_vaddr vaddr in
  if Tlb.hit m.tlb vp kind then begin
    Machine.charge m cm.mem_access;
    0
  end
  else begin
    Machine.charge m cm.tlb_walk;
    Metrics.Counters.cell_incr (Machine.hot m).Machine.c_tlb_miss;
    let r = walk_code m pt enclave vp kind in
    if r >= 0 then begin
      (* The TLB entry caches the PTE's dirty state: a later write only
         needs a re-walk (x86's dirty-bit assist) while the cached D is
         clear.  Self-paging PTEs always carry set bits.  [r] is the
         pre-writeback PTE, whose dirty bit the legacy walk would have
         set on a write — the [kind = Write] disjunct covers it. *)
      let dirty =
        enclave.self_paging || kind = Types.Write || Page_table.p_dirty r
      in
      Tlb.fill_bits ~dirty m.tlb vp (Page_table.p_rwx r);
      Machine.charge m cm.mem_access;
      0
    end
    else begin
      let idx = -r - 1 in
      Metrics.Counters.cell_incr (Machine.hot m).Machine.c_fault.(idx);
      (match Machine.tracer m with
      | None -> ()
      | Some tr ->
        let report = os_report enclave vaddr kind in
        Trace.Recorder.emit tr ~enclave:enclave.id ~actor:Trace.Event.Hw
          (Trace.Event.Fault
             {
               vpage = vp;
               access = Machine.trace_access kind;
               cause = Types.fault_cause_strings.(idx);
               reported_vpage = Types.vpage_of_vaddr report.fr_vaddr;
               reported_access = Machine.trace_access report.fr_access;
               masked = enclave.self_paging;
             }));
      r
    end
  end

let translate m pt enclave vaddr kind =
  match translate_code m pt enclave vaddr kind with
  | 0 -> Ok ()
  | code -> Error (cause_of_code code)
