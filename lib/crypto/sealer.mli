(** Authenticated, replay-protected sealing of page contents.

    Models the guarantees SGX's [EWB]/[ELDU] give to evicted EPC pages
    (confidentiality, integrity, freshness via version counters), and the
    custom in-enclave encryption the paper's SGXv2 path uses
    (ChaCha20 + SipHash encrypt-then-MAC, version bound into the MAC).

    A sealed page is one flat row,
    [ciphertext ‖ LE64 vaddr ‖ LE64 version ‖ LE64 MAC], with the MAC
    taken over everything before it.  {!seal} encrypts straight into a
    fresh row and MACs it in place; the context reuses only its nonce
    scratch, so the hot eviction/reload paths allocate just the row or
    plaintext they return. *)

type t
(** Sealing context holding the encryption and MAC keys plus a reused
    nonce buffer. *)

type sealed
(** A sealed row.  Rows are immutable once sealed and every {!seal}
    returns a fresh one, so a reference held by the untrusted side
    (the swap store, an injector's stash) never changes under it. *)

type error =
  | Mac_mismatch    (** ciphertext or metadata tampered with *)
  | Replayed        (** version is not the expected (latest) one *)

val pp_error : Format.formatter -> error -> unit

val create : master_key:string -> t
(** Derive encryption and MAC keys from [master_key]. *)

val seal : t -> vaddr:int64 -> version:int64 -> bytes -> sealed

val unseal :
  t -> vaddr:int64 -> expected_version:int64 -> sealed -> (bytes, error) result
(** Check the version, then the MAC and the vaddr, then decrypt.  A
    stale row replayed by the untrusted OS fails with [Replayed]; any
    bit flip in the ciphertext, vaddr or MAC fails with
    [Mac_mismatch]. *)

val seal_batch_into :
  t -> n:int -> vaddr:(int -> int64) -> version:(int -> int64) ->
  plaintext:(int -> bytes) -> sink:(int -> sealed -> unit) -> unit
(** Seal items [0..n-1] through one context, reading each through the
    accessor callbacks and handing each row to [sink] as soon as it is
    produced — no intermediate lists.  Seal [i] is bit-identical to
    [seal t ~vaddr:(vaddr i) ~version:(version i) (plaintext i)]. *)

(** {1 The row's fields}

    For the untrusted side and the on-disk snapshot format: the fields
    read out, a row put together from them, and the row as raw bytes
    for an adversary to edit. *)

val ciphertext_length : sealed -> int

val ciphertext : sealed -> bytes
(** A copy of the ciphertext. *)

val version : sealed -> int64
val mac : sealed -> int64
(** The stored fields, unchecked, read back from the row's end.  Raise
    [Invalid_argument] on a row too short to hold them, which only
    {!of_bytes} makes. *)

val make : ciphertext:bytes -> vaddr:int64 -> version:int64 -> mac:int64 -> sealed
(** The row holding these fields, as {!seal} lays it out. *)

val to_bytes : sealed -> bytes
(** A copy of the whole row. *)

val of_bytes : bytes -> sealed
(** Adopt raw bytes as a row, without checks or a copy: whatever the
    untrusted side wrote, which {!unseal} must then catch (a row too
    short to hold its trailer fails with [Mac_mismatch]).  The caller
    must not mutate the bytes afterwards. *)

val raw : sealed -> bytes
(** The row's own bytes, not a copy: {!of_bytes}'s inverse, for a
    store that keeps rows among other byte strings.  The caller must
    not write them. *)
