(** Enclave page cache (EPC) and its trusted metadata (EPCM).

    The EPCM is the hardware's ground truth: for every EPC frame it
    records which enclave page the frame holds, with what rights and
    type, and whether a dynamic-memory operation is pending enclave
    confirmation.  Software (even the OS) can never write it directly;
    only SGX instructions update it. *)

type epcm_entry = {
  mutable valid : bool;
  mutable enclave_id : int;
  mutable vpage : Types.vpage;
  mutable perms : Types.perms;
  mutable ptype : Types.page_type;
  mutable pending : bool;   (** EAUG'd, awaiting EACCEPT(COPY) *)
  mutable modified : bool;  (** EMODT/EMODPR'd, awaiting EACCEPT *)
  mutable blocked : bool;   (** EBLOCK'd, may be evicted by EWB *)
}

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
    (its payload reverts to the shared zero page). *)

val entry : t -> Types.frame -> epcm_entry
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
    belong to no enclave). *)

val drop_enclave : t -> enclave_id:int -> unit
(** Swap the enclave's reverse-index window for an empty one, freeing
    the window's memory.  For the OS tearing a process down, once the
    enclave holds no frame; ids never bound are ignored. *)
