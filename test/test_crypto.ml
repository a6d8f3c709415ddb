(* Tests for the crypto substrate: ChaCha20, SipHash, the page sealer
   (confidentiality / integrity / anti-replay), and the oblivious
   primitives. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- ChaCha20 --------------------------------------------------------- *)

let test_chacha_selftest () =
  checkb "RFC 8439 vector" true (Sim_crypto.Chacha20.selftest ())

let key = Sim_crypto.Chacha20.key_of_string "test-key"
let nonce = Bytes.make 12 'n'

let test_chacha_roundtrip () =
  let plaintext = Bytes.of_string "attack at dawn, page 0x1000, version 42" in
  let ct = Sim_crypto.Chacha20.xor_stream ~key ~nonce plaintext in
  checkb "ciphertext differs" false (Bytes.equal ct plaintext);
  let pt = Sim_crypto.Chacha20.xor_stream ~key ~nonce ct in
  checkb "roundtrip" true (Bytes.equal pt plaintext)

let test_chacha_multiblock () =
  let plaintext = Bytes.init 1000 (fun i -> Char.chr (i land 0xFF)) in
  let ct = Sim_crypto.Chacha20.xor_stream ~key ~nonce plaintext in
  let pt = Sim_crypto.Chacha20.xor_stream ~key ~nonce ct in
  checkb "1000-byte roundtrip" true (Bytes.equal pt plaintext)

let test_chacha_nonce_sensitivity () =
  let plaintext = Bytes.make 64 'x' in
  let n2 = Bytes.make 12 'm' in
  let c1 = Sim_crypto.Chacha20.xor_stream ~key ~nonce plaintext in
  let c2 = Sim_crypto.Chacha20.xor_stream ~key ~nonce:n2 plaintext in
  checkb "different nonce, different stream" false (Bytes.equal c1 c2)

let test_chacha_counter_continuation () =
  (* Encrypting with counter=1 equals skipping the first block. *)
  let plaintext = Bytes.make 128 'p' in
  let whole = Sim_crypto.Chacha20.xor_stream ~key ~counter:0l ~nonce plaintext in
  let tail =
    Sim_crypto.Chacha20.xor_stream ~key ~counter:1l ~nonce (Bytes.sub plaintext 64 64)
  in
  checkb "counter continuation" true (Bytes.equal (Bytes.sub whole 64 64) tail)

let test_chacha_key_validation () =
  Alcotest.check_raises "short key rejected"
    (Invalid_argument "Chacha20.block: key must be 32 bytes") (fun () ->
      ignore (Sim_crypto.Chacha20.block ~key:(Bytes.make 16 'k') ~counter:0l ~nonce))

let hex_to_bytes s =
  let s = String.concat "" (String.split_on_char ' ' s) in
  let s = String.concat "" (String.split_on_char '\n' s) in
  Bytes.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let test_chacha_rfc8439_encryption () =
  (* RFC 8439 §2.4.2: full ChaCha20 encryption test vector. *)
  let key = Bytes.init 32 Char.chr in
  let nonce = hex_to_bytes "000000000000004a00000000" in
  let plaintext =
    Bytes.of_string
      "Ladies and Gentlemen of the class of '99: If I could offer you only \
       one tip for the future, sunscreen would be it."
  in
  let expected =
    hex_to_bytes
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
       f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
       07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
       5af90bbf74a35be6b40b8eedf2785e42874d"
  in
  let ct = Sim_crypto.Chacha20.xor_stream ~key ~counter:1l ~nonce plaintext in
  checkb "RFC 8439 §2.4.2 ciphertext" true (Bytes.equal ct expected)

(* Lengths for the differential checks: every length up to 300 bytes
   (all residues around the first few block and word boundaries), then
   the sealer's larger inputs: a 4 KiB page, its MAC input (page plus
   the 16-byte vaddr/version trailer) and a 64 KiB snapshot chunk's MAC
   input. *)
let diff_lengths = List.init 301 Fun.id @ [ 4096; 4112; 65552 ]

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))

let test_chacha_matches_reference () =
  (* Differential: the unboxed implementation is bit-identical to the
     boxed reference on random keys and nonces at every length, from
     counters where the 32-bit block counter wraps mid-stream. *)
  let rng = Random.State.make [| 0x5eed |] in
  List.iter
    (fun counter ->
      List.iter
        (fun len ->
          let k = random_bytes rng 32 and nonce = random_bytes rng 12 in
          let pt = random_bytes rng len in
          let a = Sim_crypto.Chacha20.xor_stream ~key:k ~counter ~nonce pt in
          let b = Sim_crypto.Chacha20_ref.xor_stream ~key:k ~counter ~nonce pt in
          checkb
            (Printf.sprintf "xor_stream counter %lx len %d" counter len)
            true (Bytes.equal a b))
        diff_lengths)
    [ 7l; 0xFFFFFFFEl; 0xFFFFFFFFl ];
  List.iter
    (fun counter ->
      let k = random_bytes rng 32 and nonce = random_bytes rng 12 in
      checkb
        (Printf.sprintf "block at counter %lx" counter)
        true
        (Bytes.equal
           (Sim_crypto.Chacha20.block ~key:k ~counter ~nonce)
           (Sim_crypto.Chacha20_ref.block ~key:k ~counter ~nonce)))
    [ 0l; 1l; 0x7FFFFFFFl; 0x80000000l; 0xFFFFFFFFl ]

let words_allocated = Helpers.words_allocated
let native = Helpers.native

let test_chacha_allocates_only_output () =
  (* A loop that re-boxes its state allocates per block, so the words
     allocated beyond the output buffer would grow with the length.  The
     buffer is measured the same way, so whatever heap it lands in
     cancels out. *)
  if native then begin
    let k = Bytes.init 32 Char.chr in
    let extra len =
      let pt = Bytes.make len 'p' in
      words_allocated (fun () ->
          ignore
            (Sys.opaque_identity
               (Sim_crypto.Chacha20.xor_stream ~key:k ~counter:9l ~nonce pt)))
      -. words_allocated (fun () -> ignore (Sys.opaque_identity (Bytes.create len)))
    in
    Alcotest.(check (float 0.)) "same words beyond the output at 64 B and 4 KiB"
      (extra 64) (extra 4096)
  end

(* --- SipHash ---------------------------------------------------------- *)

let test_siphash_selftest () =
  checkb "reference vectors" true (Sim_crypto.Siphash.selftest ())

let test_siphash_keyed () =
  let k1 = Sim_crypto.Siphash.key_of_bytes (Bytes.make 16 'a') in
  let k2 = Sim_crypto.Siphash.key_of_bytes (Bytes.make 16 'b') in
  let msg = Bytes.of_string "hello" in
  checkb "key matters" false
    (Sim_crypto.Siphash.hash k1 msg = Sim_crypto.Siphash.hash k2 msg)

let test_siphash_message_sensitivity () =
  let k = Sim_crypto.Siphash.key_of_bytes (Bytes.make 16 'k') in
  let h1 = Sim_crypto.Siphash.hash_string k "message one" in
  let h2 = Sim_crypto.Siphash.hash_string k "message two" in
  checkb "message matters" false (h1 = h2)

let test_siphash_lengths () =
  (* Hashing must be well-defined at every residue mod 8. *)
  let k = Sim_crypto.Siphash.key_of_bytes (Bytes.init 16 Char.chr) in
  let seen = Hashtbl.create 64 in
  for len = 0 to 32 do
    let h = Sim_crypto.Siphash.hash k (Bytes.make len 'z') in
    checkb "no collision across lengths" false (Hashtbl.mem seen h);
    Hashtbl.replace seen h ()
  done

let test_siphash_reference_vectors () =
  (* SipHash-2-4 vectors from the reference implementation's test
     program: key = 00..0f, message = 00 01 .. (len-1). *)
  let k = Sim_crypto.Siphash.key_of_bytes (Bytes.init 16 Char.chr) in
  let vectors =
    [
      (0, 0x726fdb47dd0e0e31L);
      (1, 0x74f839c593dc67fdL);
      (2, 0x0d6c8009d9a94f5aL);
      (3, 0x85676696d7fb7e2dL);
      (4, 0xcf2794e0277187b7L);
      (5, 0x18765564cd99a68dL);
      (6, 0xcbc9466e58fee3ceL);
      (7, 0xab0200f58b01d137L);
      (8, 0x93f5f5799a932462L);
      (* The worked example from the SipHash paper (15-byte message). *)
      (15, 0xa129ca6149be45e5L);
    ]
  in
  List.iter
    (fun (len, expected) ->
      let msg = Bytes.init len Char.chr in
      Alcotest.(check int64)
        (Printf.sprintf "vector len %d" len)
        expected
        (Sim_crypto.Siphash.hash k msg))
    vectors

let test_siphash_matches_reference () =
  (* Differential: unboxed lanes vs the boxed Int64 reference on random
     keys at every length up to 300 bytes and at the sealer's MAC input
     sizes (page + 16-byte trailer, snapshot chunk + trailer). *)
  let rng = Random.State.make [| 0xcafe |] in
  List.iter
    (fun len ->
      let kb = random_bytes rng 16 in
      let msg = random_bytes rng len in
      Alcotest.(check int64)
        (Printf.sprintf "hash len %d" len)
        (Sim_crypto.Siphash_ref.hash (Sim_crypto.Siphash_ref.key_of_bytes kb) msg)
        (Sim_crypto.Siphash.hash (Sim_crypto.Siphash.key_of_bytes kb) msg))
    diff_lengths

let test_siphash_allocates_only_digest () =
  if native then begin
    let k = Sim_crypto.Siphash.key_of_bytes (Bytes.init 16 Char.chr) in
    let boxed_int64 = 1 + Obj.size (Obj.repr (Sys.opaque_identity 1L)) in
    List.iter
      (fun len ->
        let msg = Bytes.make len 'm' in
        let w =
          words_allocated (fun () ->
              ignore (Sys.opaque_identity (Sim_crypto.Siphash.hash k msg)))
        in
        Alcotest.(check (float 0.))
          (Printf.sprintf "hash of %d bytes allocates one boxed int64" len)
          (float_of_int boxed_int64) w)
      [ 0; 80; 4112 ]
  end

(* --- Sealer ----------------------------------------------------------- *)

let sealer = Sim_crypto.Sealer.create ~master_key:"unit-test"

let test_sealer_roundtrip () =
  let page = Bytes.of_string (String.init 64 (fun i -> Char.chr (i + 32))) in
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x1000L ~version:1L page in
  checkb "ciphertext differs" false
    (Bytes.equal (Sim_crypto.Sealer.ciphertext sealed) page);
  match Sim_crypto.Sealer.unseal sealer ~vaddr:0x1000L ~expected_version:1L sealed with
  | Ok pt -> checkb "roundtrip" true (Bytes.equal pt page)
  | Error _ -> Alcotest.fail "unseal failed"

let test_sealer_detects_tamper () =
  let page = Bytes.make 64 'd' in
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x2000L ~version:3L page in
  let flipped = Sim_crypto.Sealer.to_bytes sealed in
  Bytes.set flipped 10 (Char.chr (Char.code (Bytes.get flipped 10) lxor 1));
  let tampered = Sim_crypto.Sealer.of_bytes flipped in
  match Sim_crypto.Sealer.unseal sealer ~vaddr:0x2000L ~expected_version:3L tampered with
  | Error Sim_crypto.Sealer.Mac_mismatch -> ()
  | Ok _ -> Alcotest.fail "tampered page accepted"
  | Error Sim_crypto.Sealer.Replayed -> Alcotest.fail "wrong error"

let test_sealer_detects_replay () =
  let v1 = Sim_crypto.Sealer.seal sealer ~vaddr:0x3000L ~version:1L (Bytes.make 64 'a') in
  let _v2 = Sim_crypto.Sealer.seal sealer ~vaddr:0x3000L ~version:2L (Bytes.make 64 'b') in
  (* OS replays the old sealed page when version 2 is expected. *)
  match Sim_crypto.Sealer.unseal sealer ~vaddr:0x3000L ~expected_version:2L v1 with
  | Error Sim_crypto.Sealer.Replayed -> ()
  | Ok _ -> Alcotest.fail "replayed page accepted"
  | Error Sim_crypto.Sealer.Mac_mismatch -> Alcotest.fail "wrong error"

let test_sealer_detects_relocation () =
  (* OS presents a blob sealed for a different address. *)
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x4000L ~version:1L (Bytes.make 64 'r') in
  match Sim_crypto.Sealer.unseal sealer ~vaddr:0x5000L ~expected_version:1L sealed with
  | Error Sim_crypto.Sealer.Mac_mismatch -> ()
  | Ok _ -> Alcotest.fail "relocated page accepted"
  | Error _ -> Alcotest.fail "wrong error"

let test_sealer_key_separation () =
  let other = Sim_crypto.Sealer.create ~master_key:"other" in
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x6000L ~version:1L (Bytes.make 64 'k') in
  match Sim_crypto.Sealer.unseal other ~vaddr:0x6000L ~expected_version:1L sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-key unseal succeeded"

let ref_sealer = Sim_crypto.Sealer_ref.create ~master_key:"unit-test"

let test_sealer_matches_reference () =
  (* Interop: same master key, same inputs — the reference sealer and
     the optimized sealer must produce identical rows, byte for byte,
     and each must unseal what the other sealed. *)
  let page = Bytes.init 256 (fun i -> Char.chr ((i * 31) land 0xFF)) in
  let a = Sim_crypto.Sealer.seal sealer ~vaddr:0x8000L ~version:5L page in
  let b = Sim_crypto.Sealer_ref.seal ref_sealer ~vaddr:0x8000L ~version:5L page in
  checkb "identical row" true
    (Bytes.equal (Sim_crypto.Sealer.to_bytes a) (Sim_crypto.Sealer.to_bytes b));
  Alcotest.(check int64) "identical MAC" (Sim_crypto.Sealer.mac b)
    (Sim_crypto.Sealer.mac a);
  (match Sim_crypto.Sealer.unseal sealer ~vaddr:0x8000L ~expected_version:5L b with
  | Ok pt -> checkb "new unseals ref blob" true (Bytes.equal pt page)
  | Error _ -> Alcotest.fail "new sealer rejected reference blob");
  match
    Sim_crypto.Sealer_ref.unseal ref_sealer ~vaddr:0x8000L ~expected_version:5L a
  with
  | Ok pt -> checkb "ref unseals new blob" true (Bytes.equal pt page)
  | Error _ -> Alcotest.fail "reference sealer rejected new blob"

let test_sealer_batch_matches_single () =
  (* [seal_batch_into] hands each item's row to the sink in order, bit
     for bit the row sealing that page alone gives, and each row
     unseals back to its page. *)
  let n = 8 in
  let vaddr i = Int64.of_int (0x9000 + (i * 0x1000)) in
  let version i = Int64.of_int (100 + i) in
  let plaintext i = Bytes.init (64 + (8 * i)) (fun j -> Char.chr ((i + j) land 0xFF)) in
  let rows = Array.make n None in
  Sim_crypto.Sealer.seal_batch_into sealer ~n ~vaddr ~version ~plaintext
    ~sink:(fun i row ->
      checkb "sunk in order" true (Array.for_all Option.is_some (Array.sub rows 0 i));
      rows.(i) <- Some row);
  Array.iteri
    (fun i row ->
      let row = Option.get row in
      let single = Sim_crypto.Sealer.seal sealer ~vaddr:(vaddr i) ~version:(version i) (plaintext i) in
      checkb "batch row = single" true
        (Bytes.equal (Sim_crypto.Sealer.to_bytes row) (Sim_crypto.Sealer.to_bytes single));
      match
        Sim_crypto.Sealer.unseal sealer ~vaddr:(vaddr i) ~expected_version:(version i) row
      with
      | Ok pt -> checkb "batch roundtrip" true (Bytes.equal pt (plaintext i))
      | Error _ -> Alcotest.fail "batch row failed to unseal")
    rows

(* --- Oblivious primitives --------------------------------------------- *)

let test_oblivious_select () =
  checki "true branch" 7 (Sim_crypto.Oblivious.select true 7 9);
  checki "false branch" 9 (Sim_crypto.Oblivious.select false 7 9);
  Alcotest.(check int64) "select64 true" 5L (Sim_crypto.Oblivious.select64 true 5L 6L);
  Alcotest.(check int64) "select64 false" 6L (Sim_crypto.Oblivious.select64 false 5L 6L)

let test_oblivious_scan_read () =
  let arr = [| 10; 20; 30; 40 |] in
  checki "scan read" 30 (Sim_crypto.Oblivious.scan_read arr 2);
  Alcotest.check_raises "bounds" (Invalid_argument "Oblivious.scan_read")
    (fun () -> ignore (Sim_crypto.Oblivious.scan_read arr 4))

let test_oblivious_scan_write () =
  let arr = [| 1; 2; 3 |] in
  Sim_crypto.Oblivious.scan_write arr 1 99;
  checkb "written" true (arr = [| 1; 99; 3 |])

let test_oblivious_scan_cost () =
  let m = Metrics.Cost_model.default in
  let c = Sim_crypto.Oblivious.scan_cost m ~entries:100 ~entry_bytes:8 in
  checki "linear in bytes" (int_of_float (m.oblivious_scan_cpb *. 800.0)) c

(* --- QCheck properties ------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"chacha roundtrip on random data" ~count:100
        QCheck2.Gen.(string_size (int_range 0 300))
        (fun s ->
          let pt = Bytes.of_string s in
          let ct = Sim_crypto.Chacha20.xor_stream ~key ~nonce pt in
          Bytes.equal (Sim_crypto.Chacha20.xor_stream ~key ~nonce ct) pt);
      QCheck2.Test.make ~name:"chacha matches reference on random inputs"
        ~count:200
        QCheck2.Gen.(
          quad (string_size (return 32)) (string_size (return 12)) int32
            (string_size (int_range 0 300)))
        (fun (k, n, counter, s) ->
          let key = Bytes.of_string k and nonce = Bytes.of_string n in
          let pt = Bytes.of_string s in
          Bytes.equal
            (Sim_crypto.Chacha20.xor_stream ~key ~counter ~nonce pt)
            (Sim_crypto.Chacha20_ref.xor_stream ~key ~counter ~nonce pt));
      (* The sealer only ever XORs from offset 0 and MACs whole rows;
         these reach the kernels' unaligned stores, partial last words
         and the counter wrap. *)
      QCheck2.Test.make
        ~name:"chacha xor_into matches reference at any offset and counter"
        ~count:300
        QCheck2.Gen.(
          tup5 (string_size (return 32)) (string_size (return 12))
            (oneof
               [ int32;
                 map (fun k -> Int32.sub 0xFFFFFFFFl (Int32.of_int k)) (int_range 0 4) ])
            (pair (string_size (int_range 0 300)) (int_range 0 9))
            (pair (int_range 0 17) (int_range 0 17)))
        (fun (k, n, counter, (s, src_extra), (dst_off, dst_extra)) ->
          let key = Bytes.of_string k and nonce = Bytes.of_string n in
          let len = String.length s in
          let src = Bytes.of_string (s ^ String.make src_extra 'x') in
          let dst =
            Bytes.init (dst_off + len + dst_extra) (fun i -> Char.chr ((i * 37) land 0xFF))
          in
          let before = Bytes.copy dst in
          Sim_crypto.Chacha20.xor_into ~key ~counter ~nonce src ~len dst ~dst_off;
          Bytes.equal (Bytes.sub dst dst_off len)
            (Sim_crypto.Chacha20_ref.xor_stream ~key ~counter ~nonce (Bytes.of_string s))
          && Bytes.equal (Bytes.sub dst 0 dst_off) (Bytes.sub before 0 dst_off)
          && Bytes.equal
               (Bytes.sub dst (dst_off + len) dst_extra)
               (Bytes.sub before (dst_off + len) dst_extra));
      QCheck2.Test.make ~name:"siphash hash_prefix matches reference at every length"
        ~count:100
        QCheck2.Gen.(pair (string_size (return 16)) (string_size (int_range 0 100)))
        (fun (kb, s) ->
          let kb = Bytes.of_string kb and data = Bytes.of_string s in
          let k = Sim_crypto.Siphash.key_of_bytes kb in
          let rk = Sim_crypto.Siphash_ref.key_of_bytes kb in
          List.for_all
            (fun len ->
              Sim_crypto.Siphash.hash_prefix k data ~len
              = Sim_crypto.Siphash_ref.hash rk (Bytes.sub data 0 len))
            (List.init (Bytes.length data + 1) Fun.id));
      QCheck2.Test.make ~name:"sealer roundtrip on random pages" ~count:100
        QCheck2.Gen.(pair (string_size (int_range 1 200)) (int_range 0 1_000_000))
        (fun (s, v) ->
          let page = Bytes.of_string s in
          let version = Int64.of_int v in
          let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x7000L ~version page in
          match
            Sim_crypto.Sealer.unseal sealer ~vaddr:0x7000L ~expected_version:version
              sealed
          with
          | Ok pt -> Bytes.equal pt page
          | Error _ -> false);
      QCheck2.Test.make ~name:"sealer rows match the reference on random pages"
        ~count:100
        QCheck2.Gen.(triple (string_size (int_range 0 200)) int64 int64)
        (fun (s, vaddr, version) ->
          let page = Bytes.of_string s in
          let row = Sim_crypto.Sealer.seal sealer ~vaddr ~version page in
          let ref_row = Sim_crypto.Sealer_ref.seal ref_sealer ~vaddr ~version page in
          Bytes.equal (Sim_crypto.Sealer.to_bytes row) (Sim_crypto.Sealer.to_bytes ref_row)
          && Sim_crypto.Sealer_ref.unseal ref_sealer ~vaddr ~expected_version:version row
             = Ok page);
      QCheck2.Test.make ~name:"oblivious select equals if-then-else" ~count:500
        QCheck2.Gen.(triple bool int int)
        (fun (c, a, b) -> Sim_crypto.Oblivious.select c a b = if c then a else b);
      QCheck2.Test.make ~name:"scan_read equals direct indexing" ~count:300
        QCheck2.Gen.(list_size (int_range 1 50) int)
        (fun xs ->
          let arr = Array.of_list xs in
          let i = Array.length arr / 2 in
          Sim_crypto.Oblivious.scan_read arr i = arr.(i));
    ]

let suite =
  [
    ("chacha selftest", `Quick, test_chacha_selftest);
    ("chacha roundtrip", `Quick, test_chacha_roundtrip);
    ("chacha multiblock", `Quick, test_chacha_multiblock);
    ("chacha nonce sensitivity", `Quick, test_chacha_nonce_sensitivity);
    ("chacha counter continuation", `Quick, test_chacha_counter_continuation);
    ("chacha key validation", `Quick, test_chacha_key_validation);
    ("chacha RFC 8439 encryption vector", `Quick, test_chacha_rfc8439_encryption);
    ("chacha matches reference", `Quick, test_chacha_matches_reference);
    ("chacha allocates only its output", `Quick, test_chacha_allocates_only_output);
    ("siphash selftest", `Quick, test_siphash_selftest);
    ("siphash reference vectors", `Quick, test_siphash_reference_vectors);
    ("siphash matches reference", `Quick, test_siphash_matches_reference);
    ("siphash allocates only its digest", `Quick, test_siphash_allocates_only_digest);
    ("siphash keyed", `Quick, test_siphash_keyed);
    ("siphash message sensitivity", `Quick, test_siphash_message_sensitivity);
    ("siphash all lengths", `Quick, test_siphash_lengths);
    ("sealer roundtrip", `Quick, test_sealer_roundtrip);
    ("sealer detects tamper", `Quick, test_sealer_detects_tamper);
    ("sealer detects replay", `Quick, test_sealer_detects_replay);
    ("sealer detects relocation", `Quick, test_sealer_detects_relocation);
    ("sealer key separation", `Quick, test_sealer_key_separation);
    ("sealer matches reference", `Quick, test_sealer_matches_reference);
    ("sealer batch matches single", `Quick, test_sealer_batch_matches_single);
    ("oblivious select", `Quick, test_oblivious_select);
    ("oblivious scan read", `Quick, test_oblivious_scan_read);
    ("oblivious scan write", `Quick, test_oblivious_scan_write);
    ("oblivious scan cost", `Quick, test_oblivious_scan_cost);
  ]
  @ qcheck_cases
