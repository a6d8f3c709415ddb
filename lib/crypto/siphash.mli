(** SipHash-2-4: a fast keyed 64-bit MAC (Aumasson & Bernstein).

    Used by the page sealer to authenticate swapped-out page contents,
    standing in for the GCM/integrity-tree MACs of real SGX.

    The rounds are a C kernel (sealer_kernels.c): constant-shape,
    little-endian words at any alignment, no global state.  The length
    check stays in OCaml.  [hash] allocates only the digest it returns,
    and not even that where {!hash_prefix} inlines into its caller;
    bit-identical to the boxed reference in {!Siphash_ref}. *)

type key
(** Expanded 128-bit key: two 64-bit little-endian words. *)

val key_of_bytes : bytes -> key
(** First 16 bytes of the argument, little-endian. Raises
    [Invalid_argument] if shorter than 16 bytes. *)

val hash : key -> bytes -> int64
(** MAC of the full byte string. *)

val hash_prefix : key -> bytes -> len:int -> int64
(** MAC of the first [len] bytes, equal to [hash] of that prefix
    without copying it out; [hash] runs this same kernel.  Raises
    [Invalid_argument] unless [0 <= len <= Bytes.length]. *)

val hash_string : key -> string -> int64

val selftest : unit -> bool
(** Checks the reference test vector from the SipHash paper. *)
