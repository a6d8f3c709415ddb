(** Enclave page cache (EPC) and its trusted metadata (EPCM).

    The EPCM is the hardware's ground truth: for every EPC frame it
    records which enclave page the frame holds, with what rights and
    type, and whether a dynamic-memory operation is pending enclave
    confirmation.  Software (even the OS) can never write it directly;
    only SGX instructions update it. *)

type t

val create : frames:int -> t
(** An EPC with [frames] 4 KiB frames.  Raises [Invalid_argument]
    naming [frames] unless it is positive. *)

val total_frames : t -> int
val free_frames : t -> int

val alloc : t -> Types.frame
(** Take a free frame, or [-1] when the EPC is exhausted.  Its payload
    is the shared zero page until an instruction installs one. *)

val release : t -> Types.frame -> unit
(** Invalidate the EPCM entry and return the frame to the free pool
    (its payload reverts to the shared zero page).  Any frame {!alloc}
    handed out may be released, bound or not.  Raises
    {!Types.Sgx_error}, leaving the pool as it was, on a frame that is
    already free. *)

(** {1 EPCM entries}

    An entry is one packed, non-negative int per frame: bit 0 valid,
    bit 1 pending (EAUG'd, awaiting EACCEPT(COPY)), bit 2 modified
    (EMODT/EMODPR'd, awaiting EACCEPT), bit 3 blocked (EBLOCK'd, may be
    evicted by EWB), bits 4-6 perms (r=1, w=2, x=4), bits 8-9 the page
    type ({!ptype_code}), then the vpage and the enclave id, each biased
    by one so the unowned [-1] of a VA page or a free frame fits.  The
    low ten bits are the flags word of the snapshot probe.  Read an
    entry with the pure decoders below; only the setters and {!bind} /
    {!release} write one.  A released frame keeps its last perms and
    type. *)

val entry : t -> Types.frame -> int
(** The frame's packed entry.  Never allocates. *)

val valid : int -> bool
val pending : int -> bool
val modified : int -> bool
val blocked : int -> bool
val perm_bits : int -> int
(** The r/w/x mask (r=1, w=2, x=4). *)

val perms : int -> Types.perms
val ptype : int -> Types.page_type

val enclave_id : int -> int
(** The owning enclave, or [-1] (a VA page, a free frame). *)

val vpage : int -> Types.vpage
(** The enclave page held, or [-1]. *)

val flags : int -> int
(** The low ten bits: valid | pending<<1 | modified<<2 | blocked<<3 |
    perms<<4 | ptype<<8. *)

val ptype_code : Types.page_type -> int
(** REG 0, TCS 1, TRIM 2, VA 3: the two-bit type of an entry and of a
    PCMD. *)

val ptype_of_code : int -> Types.page_type

val max_enclave_id : int
(** The largest id an entry holds: [2^20 - 2]. *)

val max_vpage : int
(** The largest vpage an entry holds: [2^32 - 2]. *)

val set_pending : t -> Types.frame -> bool -> unit
val set_modified : t -> Types.frame -> bool -> unit
val set_blocked : t -> Types.frame -> bool -> unit
val set_perms : t -> Types.frame -> Types.perms -> unit
val set_ptype : t -> Types.frame -> Types.page_type -> unit

(** {1 Frames} *)

val data : t -> Types.frame -> Page_data.t
val set_data : t -> Types.frame -> Page_data.t -> unit

val frame_of : t -> enclave_id:int -> vpage:Types.vpage -> Types.frame option
(** Reverse lookup: the frame currently holding a given enclave page.
    The reverse index is one {!Flat} window per enclave id, over that
    enclave's own vpage range, so a page is never visible under another
    enclave's id. *)

val frame_of_packed : t -> enclave_id:int -> vpage:Types.vpage -> int
(** {!frame_of} without the [option]: [-1] when the page is not
    resident.  The hot-path form (never allocates). *)

val frames_of_enclave : t -> enclave_id:int -> Types.frame list

val bind :
  ?track_reverse:bool ->
  t -> frame:Types.frame -> enclave_id:int -> vpage:Types.vpage ->
  perms:Types.perms -> ptype:Types.page_type -> pending:bool -> unit
(** Record an EPCM entry for [frame] (used by EADD/EAUG/ELDU/EPA).
    [track_reverse:false] skips the enclave-page reverse index (VA pages
    belong to no enclave, and bind with id and vpage [-1]).  Raises
    [Types.Sgx_error] if the frame is already bound, or if [enclave_id]
    or [vpage] lies outside [[-1, max]] ({!max_enclave_id},
    {!max_vpage}). *)

val drop_enclave : t -> enclave_id:int -> unit
(** Swap the enclave's reverse-index window for an empty one, freeing
    the window's memory.  For the OS tearing a process down, once the
    enclave holds no frame; ids never bound are ignored. *)
