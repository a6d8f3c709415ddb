(* Little-endian binary writer/reader for the snapshot container and
   the explicit structure codecs.

   Two serialization engines coexist in this library on purpose.  The
   whole-world capture goes through [Marshal] (closures included; see
   {!Snapshot}), which preserves sharing and cycles but is opaque.
   The *hot* flat structures — [Sgx.Flat] (which is also every
   [Sgx.Page_table]) and [Sgx.Tlb] — additionally get these explicit,
   versioned codecs: they are the
   subject of the QCheck round-trip suite and the input of the probe
   digest that cross-checks a restore against the capture-time state,
   so a Marshal regression (or an unintended representation change)
   is caught by something that does not itself use Marshal. *)

exception Short
(** A reader ran off the end of its input. *)

module W = struct
  let u8 b v = Buffer.add_uint8 b (v land 0xFF)
  let u32 b v = Buffer.add_int32_le b (Int32.of_int v)
  let i64 = Buffer.add_int64_le

  let int_ b v = i64 b (Int64.of_int v)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let bytes_ b s =
    u32 b (Bytes.length s);
    Buffer.add_bytes b s

  let int_array b a =
    u32 b (Array.length a);
    Array.iter (fun v -> int_ b v) a
end

module R = struct
  type t = { src : string; mutable pos : int }

  let of_string src = { src; pos = 0 }
  let pos t = t.pos
  let remaining t = String.length t.src - t.pos

  let need t n = if remaining t < n then raise Short

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_le t.src t.pos) in
    t.pos <- t.pos + 4;
    v land 0xFFFFFFFF

  let i64 t =
    need t 8;
    let v = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let int_ t = Int64.to_int (i64 t)

  let take t n =
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let skip t n =
    need t n;
    t.pos <- t.pos + n

  let str t = take t (u32 t)

  let bytes_ t = Bytes.of_string (str t)

  let int_array t =
    let n = u32 t in
    (* 8 bytes per element: bound the allocation before trusting n. *)
    need t (8 * n);
    Array.init n (fun _ -> int_ t)
end

(* --- structure codecs ------------------------------------------------- *)

(* Each structure codec leads with a one-byte tag so a reader pointed at
   the wrong section fails loudly instead of reinterpreting arrays. *)
let tag_flat = 0xF1
let tag_tlb = 0xF2

let check_tag r expected name =
  let t = R.u8 r in
  if t <> expected then
    invalid_arg (Printf.sprintf "Codec.%s: bad tag 0x%02X" name t)

let write_flat b t =
  let r = Sgx.Flat.export_state t in
  W.u8 b tag_flat;
  W.int_ b r.Sgx.Flat.raw_base;
  W.int_array b r.Sgx.Flat.raw_vals

let read_flat r =
  check_tag r tag_flat "read_flat";
  let raw_base = R.int_ r in
  let raw_vals = R.int_array r in
  Sgx.Flat.import_state { Sgx.Flat.raw_base; raw_vals }

let write_tlb b t =
  let r = Sgx.Tlb.export_state t in
  W.u8 b tag_tlb;
  W.int_ b r.Sgx.Tlb.raw_cap;
  W.int_array b r.Sgx.Tlb.raw_keys;
  W.int_array b r.Sgx.Tlb.raw_vals;
  W.int_array b r.Sgx.Tlb.raw_gens;
  W.int_ b r.Sgx.Tlb.raw_gen;
  W.int_ b r.Sgx.Tlb.raw_live;
  W.int_ b r.Sgx.Tlb.raw_tombs;
  W.int_array b r.Sgx.Tlb.raw_ring;
  W.int_ b r.Sgx.Tlb.raw_head;
  W.int_ b r.Sgx.Tlb.raw_tail

let read_tlb r =
  check_tag r tag_tlb "read_tlb";
  let raw_cap = R.int_ r in
  let raw_keys = R.int_array r in
  let raw_vals = R.int_array r in
  let raw_gens = R.int_array r in
  let raw_gen = R.int_ r in
  let raw_live = R.int_ r in
  let raw_tombs = R.int_ r in
  let raw_ring = R.int_array r in
  let raw_head = R.int_ r in
  let raw_tail = R.int_ r in
  Sgx.Tlb.import_state
    {
      Sgx.Tlb.raw_cap;
      raw_keys;
      raw_vals;
      raw_gens;
      raw_gen;
      raw_live;
      raw_tombs;
      raw_ring;
      raw_head;
      raw_tail;
    }
