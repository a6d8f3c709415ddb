(** ChaCha20 stream cipher (RFC 8439 core).

    Stands in for the AES-NI / MEE encryption the paper's prototype uses
    for swapped-out page contents.  The block function is a C kernel
    (sealer_kernels.c): constant-shape (no branches on key or
    plaintext), little-endian words at any alignment, no global state.
    The argument checks below stay in OCaml.

    {!xor_into} allocates nothing and {!xor_stream} only the bytes it
    returns; bit-identical to the boxed reference in {!Chacha20_ref}. *)

type key = bytes
(** 32-byte key. *)

type nonce = bytes
(** 12-byte nonce. *)

val key_of_string : string -> key
(** [key_of_string s] derives a 32-byte key by cycling/truncating [s];
    convenient for tests. Raises [Invalid_argument] on the empty string. *)

val block : key:key -> counter:int32 -> nonce:nonce -> bytes
(** One 64-byte keystream block.  Raises [Invalid_argument] unless the
    key is 32 bytes and the nonce 12. *)

val xor_stream : key:key -> ?counter:int32 -> nonce:nonce -> bytes -> bytes
(** Encrypt/decrypt: XOR the input with the keystream starting at
    [counter] (default 0); the 32-bit block counter wraps past
    [0xFFFFFFFF].  Encryption and decryption are the same operation.
    Raises [Invalid_argument] as {!block} does. *)

val xor_into :
  key:key -> ?counter:int32 -> nonce:nonce -> bytes -> len:int -> bytes ->
  dst_off:int -> unit
(** [xor_into ~key ~nonce src ~len dst ~dst_off] writes the first [len]
    bytes of [src], XORed with the keystream, to [dst] at [dst_off]:
    {!xor_stream} without the fresh output buffer, and the one kernel
    both run.  Raises [Invalid_argument] as {!block} does, or when the
    range falls outside [src] or [dst]. *)

val selftest : unit -> bool
(** Checks the RFC 8439 §2.3.2 test vector. *)
