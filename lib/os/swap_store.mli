(** Untrusted backing store for evicted enclave pages.

    Holds sealed blobs in (simulated) regular memory.  Being untrusted,
    the store exposes raw replace/steal operations that attack drivers
    use to attempt tampering and replay — which ELDU / the runtime's
    unsealing must catch.

    Layout: a {!Sgx.Flat} index from vpage to slot over a blob array,
    with freed slots reused.  Every operation is O(1); the per-page
    EWB/ELDU path ({!put}, {!slot}, {!blob_at}, {!delete}) allocates
    nothing beyond the blob itself.  The tables start at 64 slots and
    double as pages are evicted, so a process that never pages keeps
    them small. *)

type blob =
  | V1 of Sgx.Instructions.swapped
      (** evicted by the privileged EWB instruction *)
  | V2 of Sim_crypto.Sealer.sealed
      (** sealed by the in-enclave runtime (SGXv2 path) *)

type t

val create : unit -> t
val put : t -> Sgx.Types.vpage -> blob -> unit
val take : t -> Sgx.Types.vpage -> blob option
(** Remove and return the blob for a page. *)

val slot : t -> Sgx.Types.vpage -> int
(** The slot holding the page's blob, or [-1]: {!peek} without the
    [option]. *)

val blob_at : t -> int -> blob
(** The blob in a slot returned by {!slot} (valid until the page's
    blob is replaced or deleted). *)

val peek : t -> Sgx.Types.vpage -> blob option
val mem : t -> Sgx.Types.vpage -> bool
val size : t -> int

val replace_raw : t -> Sgx.Types.vpage -> blob -> unit
(** Adversarial: overwrite a stored blob without any checks ({!put} by
    another name: the store checks nothing either way). *)

val delete : t -> Sgx.Types.vpage -> unit
(** Adversarial: drop a stored blob (the OS "loses" an evicted page). *)

