type t = {
  enc_key : Chacha20.key;
  mac_key : Siphash.key;
  (* Reused across seal/unseal calls so the per-page paths (EWB/ELDU,
     the SGXv2 evict/fetch loops) only allocate the row or plaintext
     they hand back. *)
  nonce_buf : bytes;
}

(* One sealed page as a flat row:

     ciphertext (n bytes) ‖ LE64 vaddr ‖ LE64 version ‖ LE64 MAC

   The MAC covers the row's first n + 16 bytes, so it is computed in
   place over the ciphertext and the two metadata words that follow
   it.  A 64-byte payload makes an 88-byte row: one 13-word block. *)
type sealed = bytes

type error = Mac_mismatch | Replayed

let pp_error ppf = function
  | Mac_mismatch -> Format.pp_print_string ppf "MAC mismatch"
  | Replayed -> Format.pp_print_string ppf "replayed version"

(* Bytes after the ciphertext: vaddr, version, MAC. *)
let trailer = 24

let create ~master_key =
  let enc_key = Chacha20.key_of_string ("enc:" ^ master_key) in
  let mac_material = Chacha20.key_of_string ("mac:" ^ master_key) in
  { enc_key; mac_key = Siphash.key_of_bytes mac_material; nonce_buf = Bytes.create 12 }

(* Nonce: LE64(vaddr XOR version<<17) followed by the 4 low bytes of
   the version — written into the reused [nonce_buf]. *)
let set_nonce t ~vaddr ~version =
  Bytes.set_int64_le t.nonce_buf 0
    (Int64.logxor vaddr (Int64.shift_left version 17));
  Bytes.set_int32_le t.nonce_buf 8 (Int64.to_int32 version)

(* A row shorter than its trailer can only come from the untrusted side
   ({!of_bytes}); it reads as a zero-length ciphertext whose fields are
   all out of range, and fails the checks below. *)
let ciphertext_length row = max 0 (Bytes.length row - trailer)

let seal t ~vaddr ~version plaintext =
  let n = Bytes.length plaintext in
  let row = Bytes.create (n + trailer) in
  set_nonce t ~vaddr ~version;
  Chacha20.xor_into ~key:t.enc_key ~nonce:t.nonce_buf plaintext ~len:n row ~dst_off:0;
  Bytes.set_int64_le row n vaddr;
  Bytes.set_int64_le row (n + 8) version;
  Bytes.set_int64_le row (n + 16) (Siphash.hash_prefix t.mac_key row ~len:(n + 16));
  row

let unseal t ~vaddr ~expected_version row =
  let n = Bytes.length row - trailer in
  if n < 0 then Error Mac_mismatch
  else if Bytes.get_int64_le row (n + 8) <> expected_version then Error Replayed
  else if
    Siphash.hash_prefix t.mac_key row ~len:(n + 16) <> Bytes.get_int64_le row (n + 16)
    || Bytes.get_int64_le row n <> vaddr
  then Error Mac_mismatch
  else begin
    set_nonce t ~vaddr ~version:expected_version;
    let plaintext = Bytes.create n in
    Chacha20.xor_into ~key:t.enc_key ~nonce:t.nonce_buf row ~len:n plaintext ~dst_off:0;
    Ok plaintext
  end

let seal_batch_into t ~n ~vaddr ~version ~plaintext ~sink =
  for i = 0 to n - 1 do
    sink i (seal t ~vaddr:(vaddr i) ~version:(version i) (plaintext i))
  done

(* --- the row's fields -------------------------------------------------- *)

(* Counted back from the row's end; a row shorter than its trailer
   fails the bounds check. *)
let version row = Bytes.get_int64_le row (Bytes.length row - 16)
let mac row = Bytes.get_int64_le row (Bytes.length row - 8)
let ciphertext row = Bytes.sub row 0 (ciphertext_length row)

let make ~ciphertext ~vaddr ~version ~mac =
  let n = Bytes.length ciphertext in
  let row = Bytes.create (n + trailer) in
  Bytes.blit ciphertext 0 row 0 n;
  Bytes.set_int64_le row n vaddr;
  Bytes.set_int64_le row (n + 8) version;
  Bytes.set_int64_le row (n + 16) mac;
  row

let to_bytes = Bytes.copy
let of_bytes row = row
let raw row = row
