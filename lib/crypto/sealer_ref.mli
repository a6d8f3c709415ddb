(** Reference sealer built on the boxed reference primitives.

    Same construction as {!Sealer} (same key derivation, nonce layout,
    MAC coverage and row layout), produced and consumed with the slow
    reference ChaCha20/SipHash and byte-at-a-time row access.  Shares
    {!Sealer.sealed} and {!Sealer.error}, so rows interoperate across
    the two implementations — the property the differential tests and
    the sealing microbenchmark rely on. *)

type t

val create : master_key:string -> t
val seal : t -> vaddr:int64 -> version:int64 -> bytes -> Sealer.sealed

val unseal :
  t -> vaddr:int64 -> expected_version:int64 -> Sealer.sealed ->
  (bytes, Sealer.error) result
