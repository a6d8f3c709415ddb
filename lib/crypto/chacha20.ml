(* ChaCha20: argument checks here, rounds in C.

   The block function runs in sealer_kernels.c, reached through a
   [@@noalloc] external whose counter, length and offset cross unboxed
   and untagged, so {!xor_into} allocates nothing and {!xor_stream} only
   the bytes it returns.  Every check stays on this side, so the kernel
   only ever sees a validated range.  Output is bit-identical to the
   boxed reference {!Chacha20_ref}; see test/test_crypto.ml for the
   differential and RFC 8439 vector checks. *)

type key = bytes
type nonce = bytes

external xor_kernel :
  bytes -> (int32[@unboxed]) -> bytes -> bytes -> (int[@untagged]) -> bytes ->
  (int[@untagged]) -> unit
  = "sim_crypto_chacha20_xor_byte" "sim_crypto_chacha20_xor"
[@@noalloc]

let key_of_string s =
  if String.length s = 0 then invalid_arg "Chacha20.key_of_string: empty";
  Bytes.init 32 (fun i -> s.[i mod String.length s])

let xor_into ~key ?(counter = 0l) ~nonce src ~len:n dst ~dst_off:d =
  if Bytes.length key <> 32 then invalid_arg "Chacha20.block: key must be 32 bytes";
  if Bytes.length nonce <> 12 then
    invalid_arg "Chacha20.block: nonce must be 12 bytes";
  if n < 0 || n > Bytes.length src || d < 0 || d > Bytes.length dst - n then
    invalid_arg "Chacha20.xor_into: range outside src or dst";
  xor_kernel key counter nonce src n dst d

let xor_stream ~key ?counter ~nonce data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  xor_into ~key ?counter ~nonce data ~len:n out ~dst_off:0;
  out

(* The keystream block is the encryption of 64 zero bytes. *)
let block ~key ~counter ~nonce = xor_stream ~key ~counter ~nonce (Bytes.make 64 '\000')

let selftest () =
  (* RFC 8439 §2.3.2 block-function test vector. *)
  let key = Bytes.init 32 Char.chr in
  let nonce = Bytes.make 12 '\000' in
  Bytes.set nonce 3 '\009';
  Bytes.set nonce 7 '\074';
  let out = block ~key ~counter:1l ~nonce in
  let expected_prefix =
    [ 0x10; 0xf1; 0xe7; 0xe4; 0xd1; 0x3b; 0x59; 0x15;
      0x50; 0x0f; 0xdd; 0x1f; 0xa3; 0x20; 0x71; 0xc4 ]
  in
  List.for_all2
    (fun i expected -> Char.code (Bytes.get out i) = expected)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
    expected_prefix
