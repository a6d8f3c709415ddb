(** Untrusted backing store for evicted enclave pages.

    Holds each swapped-out page as its sealed row
    ({!Sim_crypto.Sealer.sealed}) and its PCMD int in (simulated)
    regular memory.  A page EWB evicted carries the hardware PCMD
    (see {!Sgx.Instructions}, non-negative); a page the enclave
    runtime sealed itself (SGXv2) carries {!runtime_sealed}, whose sign
    bit tells the two apart.  Being untrusted, the store exposes raw
    replace/steal operations that attack drivers use to attempt
    tampering and replay — which ELDU / the runtime's unsealing must
    catch.

    {b Deferred entries.}  A boot page the OS places beyond the EPC
    allowance ({!put_deferred}) is stored as its VA version and
    plaintext, not as a row: most are never read.  The row is sealed,
    with the store's sealer (the machine's paging keys), the first time
    {!slot}, {!peek} or {!iter} reads the entry, and kept from then on;
    it is byte-identical to the row EWB would have written for the page
    at that version.  Reads that need only the PCMD or the version
    ({!mem}, {!mem_runtime_sealed}, {!iter_versions}, {!size}) and
    {!delete} never seal.  An all-zero plaintext is the one zero page
    the store shares among its entries; any other is copied.

    Layout: a {!Sgx.Flat} index from vpage to slot over a bytes array
    (row or deferred plaintext), a PCMD array and a version array, with
    freed slots reused.  Every operation is O(1); the per-page EWB/ELDU
    path ({!put}, {!slot}, {!row_at}, {!pcmd_at}, {!delete}) allocates
    nothing beyond the row itself, sealed there on a deferred entry's
    first read.  The tables start at 64 slots and grow by a quarter as
    pages are evicted, so a process that never pages keeps them
    small. *)

type t

val runtime_sealed : int
(** [-1]: the PCMD stored with a runtime-sealed (SGXv2) row. *)

val create : Sim_crypto.Sealer.t -> t
(** An empty store that seals its deferred entries with the given
    sealer (the machine's paging keys). *)

val put : t -> Sgx.Types.vpage -> Sim_crypto.Sealer.sealed -> pcmd:int -> unit

val put_deferred :
  t -> Sgx.Types.vpage -> version:int -> bytes -> pcmd:int -> unit
(** Store a page as its VA version and plaintext, its row sealed on
    first read (see above).  The plaintext is copied unless all zero,
    so the caller may reuse its buffer.  Raises [Invalid_argument] on a
    negative version. *)

val slot : t -> Sgx.Types.vpage -> int
(** The slot holding the page's row, or [-1]: {!peek} without the
    [option].  Seals a deferred entry. *)

val row_at : t -> int -> Sim_crypto.Sealer.sealed
val pcmd_at : t -> int -> int
(** The row and PCMD in a slot returned by {!slot} (valid until the
    page's entry is replaced or deleted). *)

val peek : t -> Sgx.Types.vpage -> (Sim_crypto.Sealer.sealed * int) option
(** The page's row and PCMD.  Seals a deferred entry. *)

val mem : t -> Sgx.Types.vpage -> bool

val mem_runtime_sealed : t -> Sgx.Types.vpage -> bool
(** Whether the page is stored with PCMD {!runtime_sealed}. *)

val size : t -> int

val iter : (Sim_crypto.Sealer.sealed -> int -> unit) -> t -> unit
(** Each stored row with its PCMD, in ascending vpage order.  Seals
    every deferred entry. *)

val iter_versions : (int -> int -> unit) -> t -> unit
(** [iter_versions f t] calls [f version pcmd] for each entry in
    ascending vpage order: a deferred entry's VA version, or the version
    a row carries ([-1] when it holds none that fits an int).  Seals
    nothing. *)

val replace_raw : t -> Sgx.Types.vpage -> Sim_crypto.Sealer.sealed -> pcmd:int -> unit
(** Adversarial: overwrite a stored entry without any checks ({!put} by
    another name: the store checks nothing either way). *)

val delete : t -> Sgx.Types.vpage -> unit
(** Adversarial: drop a stored entry (the OS "loses" an evicted page). *)

val footprint : t -> Metrics.Words.t -> unit
(** Count the store's rows and slot arrays as [Swap_stores] (a zero page
    its deferred entries share, once) and its index as [Flat_windows].
    The sealer is the machine's ({!Sgx.Machine.footprint}). *)
