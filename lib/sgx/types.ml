(** Shared vocabulary of the SGX hardware model.

    Virtual addresses are byte addresses ([vaddr]); most of the model
    works on virtual page numbers ([vpage] = vaddr / page size).  Physical
    EPC pages are identified by frame index. *)

type vaddr = int
type vpage = int
type frame = int

let page_shift = 12
let page_bytes = 1 lsl page_shift
let vpage_of_vaddr (a : vaddr) : vpage = a lsr page_shift
let vaddr_of_vpage (p : vpage) : vaddr = p lsl page_shift

(** Kind of memory access, as seen by the MMU. *)
type access_kind = Read | Write | Exec

let pp_access_kind ppf k =
  Format.pp_print_string ppf
    (match k with Read -> "read" | Write -> "write" | Exec -> "exec")

(** Page permissions recorded in PTEs and the EPCM. *)
type perms = { r : bool; w : bool; x : bool }

let perms_rw = { r = true; w = true; x = false }
let perms_rx = { r = true; w = false; x = true }
let perms_ro = { r = true; w = false; x = false }
let perms_rwx = { r = true; w = true; x = true }

let perms_allow perms = function
  | Read -> perms.r
  | Write -> perms.w
  | Exec -> perms.x

(* Dense index for access kinds (decision tables, packed encodings). *)
let access_kind_index = function Read -> 0 | Write -> 1 | Exec -> 2

(** {2 Bit-packed permissions}

    The flat page table and TLB store permissions as a 3-bit mask
    (r=1, w=2, x=4) inside a packed int; these helpers keep the
    encoding in one place. *)

let perms_bits p =
  (if p.r then 1 else 0) lor (if p.w then 2 else 0) lor (if p.x then 4 else 0)

let kind_bit = function Read -> 1 | Write -> 2 | Exec -> 4
let bits_allow bits kind = bits land kind_bit kind <> 0

(* The eight records, built once: unpacking a mask allocates nothing. *)
let perms_by_bits =
  Array.init 8 (fun b -> { r = b land 1 <> 0; w = b land 2 <> 0; x = b land 4 <> 0 })

let perms_of_bits b = perms_by_bits.(b land 7)

(* [perms_subset a b]: every right in [a] is also in [b]. *)
let perms_subset a b = ((not a.r) || b.r) && ((not a.w) || b.w) && ((not a.x) || b.x)

let pp_perms ppf p =
  Format.fprintf ppf "%c%c%c"
    (if p.r then 'r' else '-')
    (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

(** EPCM page types (SGX PT_REG / PT_TCS / PT_TRIM / PT_VA). *)
type page_type = Pt_reg | Pt_tcs | Pt_trim | Pt_va

let pp_page_type ppf t =
  Format.pp_print_string ppf
    (match t with
    | Pt_reg -> "REG" | Pt_tcs -> "TCS" | Pt_trim -> "TRIM" | Pt_va -> "VA")

(** Architectural cause of a page fault inside the enclave region. *)
type fault_cause =
  | Not_present        (** PTE present bit clear or no PTE *)
  | Permission of access_kind  (** PTE lacks the required right *)
  | Epcm_mismatch      (** PTE maps the wrong frame / wrong enclave page *)
  | Epcm_pending       (** page added by EAUG but not yet EACCEPTed *)
  | Ad_clear           (** Autarky check: accessed/dirty bit was clear *)
  | Non_epc_mapping    (** enclave address mapped to non-EPC memory *)

(* Dense index for per-cause counter arrays; keep in sync with
   [all_fault_causes]. *)
let fault_cause_index = function
  | Not_present -> 0
  | Permission Read -> 1
  | Permission Write -> 2
  | Permission Exec -> 3
  | Epcm_mismatch -> 4
  | Epcm_pending -> 5
  | Ad_clear -> 6
  | Non_epc_mapping -> 7

let all_fault_causes =
  [| Not_present; Permission Read; Permission Write; Permission Exec;
     Epcm_mismatch; Epcm_pending; Ad_clear; Non_epc_mapping |]

(* Precomputed cause strings, indexed by [fault_cause_index]: the MMU
   fault-trace path must not run [Format.asprintf] per fault. *)
let fault_cause_strings =
  [| "not-present"; "perm-read"; "perm-write"; "perm-exec"; "epcm-mismatch";
     "epcm-pending"; "ad-clear"; "non-epc-mapping" |]

let pp_fault_cause ppf c =
  Format.pp_print_string ppf fault_cause_strings.(fault_cause_index c)

(** What the hardware reports to the untrusted OS after an enclave fault.
    For legacy enclaves the address is page-aligned (offset masked); for
    self-paging (Autarky) enclaves the whole address and access type are
    hidden: the fault is reported as a read at the enclave base. *)
type os_fault_report = {
  fr_enclave_id : int;
  fr_vaddr : vaddr;
  fr_access : access_kind;
}

(** Full fault information saved in the SSA frame, visible only to
    trusted in-enclave code. *)
type ssa_fault = {
  sf_vaddr : vaddr;
  sf_access : access_kind;
  sf_cause : fault_cause;
}

exception Enclave_terminated of { enclave_id : int; reason : string }
(** Raised when trusted enclave software decides to terminate (e.g. the
    self-paging runtime detected an OS-induced fault). *)

exception Sgx_error of string
(** An SGX instruction was used against its architectural preconditions;
    indicates a simulator-usage bug, not an attack outcome. *)

let sgx_errorf fmt = Format.kasprintf (fun s -> raise (Sgx_error s)) fmt
