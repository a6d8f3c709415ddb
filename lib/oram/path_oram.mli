(** PathORAM (Stefanov et al., CCS'13) over an untrusted page store.

    This is the ORAM construction the paper builds its secure-paging
    backend on (§2.3, §5.2.2, §6 — the CoSMIX PathORAM memory store).
    Block size is one page.  The untrusted storage is a complete binary
    tree of buckets, [z] blocks per bucket, holding real and dummy
    blocks; a trusted position map assigns each block to a random leaf,
    remapped on every access; a trusted stash buffers blocks in flight.

    Two metadata regimes:
    {ul
    {- [`Direct]: position map and stash live in enclave-managed (pinned)
       pages, so they can be addressed directly — this is what Autarky
       makes safe, and what makes the cached ORAM fast.}
    {- [`Oblivious_scan]: without Autarky, touching metadata leaks, so
       every position-map and stash access linearly scans the structure
       with CMOV-style constant-time selection (the CoSMIX baseline);
       the scan cost is charged on every access.}}

    Storage: the tree is one flat array of block ids, [z] slots per
    bucket, and the stash is an id array; each block's payload is
    materialised as a zero page on its first access and stays in one
    host slot from then on.  Every bucket slot a path read or write
    moves is still charged the full encrypt/decrypt cost; the
    cryptographic seal itself is exercised separately (see
    {!Sim_crypto.Sealer}).  A re-encrypted block changes only its
    ciphertext and its place in the tree, and both are modelled (the
    charges and the id's slot), so a payload that never moves keeps the
    simulation fast without weakening what the experiments measure
    (the access-pattern and cycle-cost behaviour). *)

type metadata = [ `Direct | `Oblivious_scan ]

type t

val create :
  clock:Metrics.Clock.t -> rng:Metrics.Rng.t -> ?z:int ->
  ?metadata:metadata -> n_blocks:int -> unit -> t
(** An ORAM able to hold [n_blocks] page-sized blocks ([z] defaults
    to 4, metadata to [`Direct]).
    @raise Invalid_argument when [n_blocks] or [z] is not positive. *)

val n_blocks : t -> int
val levels : t -> int
(** Number of bucket levels on a path (tree height + 1). *)

val leaves : t -> int
val stash_size : t -> int
(** Current number of stashed blocks (transient overflow indicator). *)

val access : t -> block:int -> (Sgx.Page_data.t -> unit) -> unit
(** Obliviously fetch [block], run [f] on its payload (reads and writes
    through the payload are both fine), and write the path back with the
    block remapped to a fresh random leaf. *)

val read : t -> block:int -> Sgx.Page_data.t
(** Copy of the block's payload. *)

val write : t -> block:int -> Sgx.Page_data.t -> unit

val set_tracing : t -> bool -> unit
(** Record the leaf label of every access (for obliviousness tests). *)

val trace : t -> int list
(** Recorded leaf labels, most recent first. *)

val access_cost : t -> int
(** Cycle cost charged by one access under this ORAM's metadata regime
    (for [`Oblivious_scan] this includes the per-bucket stash scans of
    the write-back path), useful for analytic cross-checks in benches. *)
