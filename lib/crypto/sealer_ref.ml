(* Reference sealer on the boxed reference primitives — the original
   implementation, kept as the interoperability baseline: a row sealed
   here must unseal under {!Sealer} with the same master key (and vice
   versa), byte for byte the same row.  It lays the row out and reads
   it back with its own byte loops, so it is an oracle for the row
   layout as well as for the crypto. *)

type t = { enc_key : Chacha20_ref.key; mac_key : Siphash_ref.key }

let create ~master_key =
  let enc_key = Chacha20_ref.key_of_string ("enc:" ^ master_key) in
  let mac_material = Chacha20_ref.key_of_string ("mac:" ^ master_key) in
  { enc_key; mac_key = Siphash_ref.key_of_bytes mac_material }

let store_le64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i)
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let load_le64 b off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b (off + i))))
  done;
  !v

let nonce_of ~vaddr ~version =
  let nonce = Bytes.create 12 in
  store_le64 nonce 0 (Int64.logxor vaddr (Int64.shift_left version 17));
  Bytes.set nonce 8 (Char.chr (Int64.to_int (Int64.logand version 0xFFL)));
  Bytes.set nonce 9
    (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical version 8) 0xFFL)));
  Bytes.set nonce 10
    (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical version 16) 0xFFL)));
  Bytes.set nonce 11
    (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical version 24) 0xFFL)));
  nonce

let mac_of t ~vaddr ~version ciphertext =
  let n = Bytes.length ciphertext in
  let buf = Bytes.create (n + 16) in
  Bytes.blit ciphertext 0 buf 0 n;
  store_le64 buf n vaddr;
  store_le64 buf (n + 8) version;
  Siphash_ref.hash t.mac_key buf

(* ciphertext ‖ LE64 vaddr ‖ LE64 version ‖ LE64 MAC *)
let seal t ~vaddr ~version plaintext =
  let nonce = nonce_of ~vaddr ~version in
  let ciphertext = Chacha20_ref.xor_stream ~key:t.enc_key ~nonce plaintext in
  let mac = mac_of t ~vaddr ~version ciphertext in
  let n = Bytes.length ciphertext in
  let row = Bytes.create (n + 24) in
  Bytes.blit ciphertext 0 row 0 n;
  store_le64 row n vaddr;
  store_le64 row (n + 8) version;
  store_le64 row (n + 16) mac;
  Sealer.of_bytes row

let unseal t ~vaddr ~expected_version sealed =
  let row = Sealer.to_bytes sealed in
  let n = Bytes.length row - 24 in
  if n < 0 then Error Sealer.Mac_mismatch
  else
    let ciphertext = Bytes.sub row 0 n in
    let sealed_vaddr = load_le64 row n and version = load_le64 row (n + 8) in
    if version <> expected_version then Error Sealer.Replayed
    else
      let mac = mac_of t ~vaddr:sealed_vaddr ~version ciphertext in
      if mac <> load_le64 row (n + 16) || sealed_vaddr <> vaddr then
        Error Sealer.Mac_mismatch
      else
        let nonce = nonce_of ~vaddr:sealed_vaddr ~version in
        Ok (Chacha20_ref.xor_stream ~key:t.enc_key ~nonce ciphertext)
