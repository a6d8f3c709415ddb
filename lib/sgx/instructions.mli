(** The SGX instruction set, as used by the OS (privileged: ECREATE,
    EADD, EWB, ELDU, EAUG, EMODPR, EMODT, EREMOVE) and by trusted enclave
    code (EENTER/EEXIT/ERESUME counterparts, EACCEPT, EACCEPTCOPY), with
    the Autarky semantics for fault delivery.

    Simplifications relative to real SGX, documented in DESIGN.md: TCS
    pages are modelled as part of the enclave object rather than as EPC
    pages; measurement/attestation (EEXTEND, EINITTOKEN) is out of
    scope.  The EBLOCK/ETRACK/EPA eviction protocol and version-array
    slots are modelled architecturally. *)

(** {1 Page crypto metadata}

    EWB leaves two things in untrusted memory for each evicted page:
    the sealed row ({!Sim_crypto.Sealer.sealed}: ciphertext, vaddr,
    version and MAC) and the page's PCMD, packed here into one
    non-negative int — the owning enclave id, the EPCM permissions and
    page type, and the version-array slot that holds the page's
    anti-replay version.  EWB raises {!Types.Sgx_error} past 2^27
    enclave ids or 2^30 VA slots, which the packing cannot hold.  The
    PCMD lies outside the row's MAC; ELDU checks its enclave id against
    the enclave it loads into and takes the expected version from the
    slot, which the OS cannot write. *)

val pcmd_perms : int -> Types.perms
val pcmd_va_slot : int -> int

type eldu_error = [ `Mac_mismatch | `Replayed | `Epc_full ]

val pp_eldu_error : Format.formatter -> eldu_error -> unit

(** {1 Enclave lifecycle} *)

val ecreate : Machine.t -> size_pages:int -> self_paging:bool -> Enclave.t

val eadd :
  Machine.t -> Enclave.t -> vpage:Types.vpage -> data:Page_data.t ->
  perms:Types.perms -> ptype:Types.page_type -> Types.frame
(** Populate an initial enclave page (pre-EINIT only). Raises
    {!Types.Sgx_error} on EPC exhaustion or if already initialized. *)

val einit : Machine.t -> Enclave.t -> unit

(** {1 Entry, exit and fault delivery} *)

val aex :
  Machine.t -> Enclave.t ->
  reason:[ `Fault of Types.ssa_fault | `Interrupt ] -> unit
(** Asynchronous enclave exit: push the SSA frame (for faults), set the
    pending-exception flag (self-paging enclaves, faults only), flush the
    TLB and leave enclave mode.  SSA overflow terminates the enclave
    (§5.3 re-entrancy defence). *)

val eresume : Machine.t -> Enclave.t -> (unit, [ `Pending_exception ]) result
(** Resume after AEX, popping the saved SSA frame.  Fails for a
    self-paging enclave whose pending-exception flag is set — the OS
    cannot silently resume over a page fault. *)

val enter_handler_and_resume : Machine.t -> Enclave.t -> unit
(** EENTER the enclave's trusted entry point (clearing the pending flag),
    run it, and resume the interrupted computation according to the
    machine's {!Machine.transition_mode} (EEXIT+ERESUME, or the proposed
    in-enclave resume). *)

val deliver_fault_in_enclave : Machine.t -> Enclave.t -> Types.ssa_fault -> unit
(** The [No_upcall_no_aex] path: deliver the fault directly to the
    in-enclave handler without any enclave exit. *)

val eenter_run : Machine.t -> Enclave.t -> (unit -> 'a) -> 'a
(** Charge an ordinary EENTER/EEXIT pair around running [f] in enclave
    mode (used to start a workload). *)

(** {1 SGXv1 privileged paging}

    The eviction protocol is the architectural one: EBLOCK each victim,
    ETRACK (whose epoch retires once every logical core's TLB has been
    flushed — modelled as the IPI shootdown ETRACK itself charges on our
    single simulated core), then EWB each page into a version-array slot
    provisioned by EPA. *)

val epa : Machine.t -> (Types.frame, [ `Epc_full ]) result
(** Create a version-array page: takes a free EPC frame and provisions
    512 anti-replay slots. *)

val eblock : Machine.t -> Enclave.t -> vpage:Types.vpage -> unit
(** Mark the page blocked: new TLB mappings are refused and the page
    becomes a candidate for EWB once the current epoch retires. *)

val etrack : Machine.t -> Enclave.t -> unit
(** Start (and, on this single-core model, retire) the tracking epoch
    for the enclave's blocked pages, performing the TLB shootdown. *)

val ewb :
  Machine.t -> Enclave.t -> vpage:Types.vpage -> Sim_crypto.Sealer.sealed * int
(** Evict a blocked-and-tracked page: seal contents with the hardware
    paging key, store the anti-replay version in a VA slot, invalidate
    the EPCM entry and free the frame.  Returns the sealed row and its
    PCMD.  The caller (OS) must also unmap the PTE.  Raises
    {!Types.Sgx_error} if the page was not blocked, the epoch has not
    retired, or no VA slot is free. *)

val eldu :
  Machine.t -> Enclave.t -> vpage:Types.vpage -> Sim_crypto.Sealer.sealed ->
  pcmd:int -> (Types.frame, eldu_error) result
(** Reload an evicted page at [vpage] from its row and PCMD, verifying
    integrity and freshness: the row's MAC must bind [vpage]'s address
    and the version held in the PCMD's VA slot.  Raises
    {!Types.Sgx_error} if the PCMD names another enclave. *)

val seal_page :
  Sim_crypto.Sealer.t -> vpage:Types.vpage -> version:int -> bytes ->
  Sim_crypto.Sealer.sealed
(** The row EWB writes for a page: its plaintext sealed under [vpage]'s
    address and the anti-replay version.  Given the machine's sealer,
    the row ELDU accepts while the page's VA slot holds [version]. *)

val reserve_swap_slot :
  Machine.t -> Enclave.t -> vpage:Types.vpage -> perms:Types.perms ->
  ptype:Types.page_type -> int * int
(** Initialization-time helper: place a page in the backing store as if
    it had been EADDed and immediately EWBed, without ever occupying an
    EPC frame and without charging cycles.  Takes a fresh version and a
    VA slot holding it, and returns the version and the page's PCMD;
    the row is {!seal_page} of the page at that version, which the OS
    may seal later (its swap store seals it on first read).  Used
    to pre-populate enclaves whose initial image exceeds the EPC, which
    the paper's methodology excludes from measurement ("results do not
    include initialization").  Raises {!Types.Sgx_error} if [vpage]
    lies outside the enclave or no VA slot is free. *)

(** {1 SGXv2 dynamic memory management} *)

val eaug :
  Machine.t -> Enclave.t -> vpage:Types.vpage -> (Types.frame, [ `Epc_full ]) result
(** OS adds a zeroed page in pending state; unusable until accepted. *)

val eaccept : Machine.t -> Enclave.t -> vpage:Types.vpage -> unit
(** Enclave confirms a pending or modified page. *)

val eacceptcopy :
  Machine.t -> Enclave.t -> vpage:Types.vpage -> data:Page_data.t -> unit
(** Enclave confirms a pending page and initializes its contents. *)

val emodpr : Machine.t -> Enclave.t -> vpage:Types.vpage -> perms:Types.perms -> unit
(** OS restricts EPCM permissions; page is unusable until EACCEPT. Also
    performs the TLB shootdown the OS is responsible for. *)

val emodt : Machine.t -> Enclave.t -> vpage:Types.vpage -> unit
(** OS marks the page for trimming (type TRIM); requires EACCEPT. *)

val eremove : Machine.t -> Enclave.t -> vpage:Types.vpage -> unit
(** OS removes an accepted TRIM page, freeing the frame. *)

(** {1 Content access (for the execution engine)} *)

val page_data : Machine.t -> Enclave.t -> vpage:Types.vpage -> Page_data.t option
(** The payload of a resident enclave page, if any. *)
