(* The sealed on-disk snapshot container.

   Layout (all integers little-endian):

     magic           "AUTARKYSNAP1"            (12 bytes)
     u32 hlen        plaintext header length
     header          kind, label, counter, cycle, probe, binary digest,
                     payload length, chunk count, chunk size
     chunks          u32 clen | ciphertext | i64 mac     (x chunk count)

   The sealed plaintext is [encoded header ++ payload]: the header is
   re-encoded *inside* the seal, so every field an attacker could edit
   in the plaintext copy (kind, label, cycle, probe, binary) is bound
   by the MACs — on load the inner copy must equal the outer one.

   Chunk [i] is sealed with [vaddr = i] and [version = counter] through
   the same {!Sim_crypto.Sealer} the EPC paging path uses
   (ChaCha20 + SipHash encrypt-then-MAC, version bound into the MAC).
   That gives the paper's freshness argument for whole-system images:

   - a flipped bit anywhere (ciphertext, chunk order, the counter
     field) fails the MAC -> [Tampered];
   - a *whole old image* replayed verbatim carries a valid MAC but an
     older monotonic counter, which the counter store rejects ->
     [Stale].  The store is the trusted-counter stand-in: one counter
     per lineage label, bumped on every save. *)

type error =
  | Truncated
  | Bad_magic
  | Bad_format of int
  | Tampered of { chunk : int }
  | Header_forged
  | Stale of { label : string; counter : int64; latest : int64 }
  | Wrong_kind of { expected : string; got : string }
  | Incompatible_binary of { expected : string; got : string }
  | Probe_mismatch of { expected : int64; got : int64 }
  | Unmarshal_failed of string
  | Io_error of string

exception Snapshot_error of error

let error_to_string = function
  | Truncated -> "truncated image"
  | Bad_magic -> "bad magic (not a snapshot image)"
  | Bad_format v -> Printf.sprintf "unsupported format version %d" v
  | Tampered { chunk } -> Printf.sprintf "MAC mismatch on chunk %d" chunk
  | Header_forged -> "plaintext header disagrees with the sealed copy"
  | Stale { label; counter; latest } ->
    Printf.sprintf "stale image for %S: counter %Ld < latest %Ld" label counter
      latest
  | Wrong_kind { expected; got } ->
    Printf.sprintf "wrong image kind: expected %S, got %S" expected got
  | Incompatible_binary { expected; got } ->
    Printf.sprintf "image from a different binary (%s, this is %s)" expected got
  | Probe_mismatch { expected; got } ->
    Printf.sprintf "probe digest mismatch: captured %016Lx, restored %016Lx"
      expected got
  | Unmarshal_failed msg -> "unmarshal failed: " ^ msg
  | Io_error msg -> "i/o error: " ^ msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let magic = "AUTARKYSNAP1"
let chunk_size = 65_536
let master_key = "autarky-snapshot-seal-key"

type header = {
  h_kind : string;  (* "longrun" | "inject" | "serve" | ... *)
  h_label : string;  (* lineage identity for the freshness counter *)
  h_counter : int64;
  h_cycle : int64;
  h_probe : int64;  (* machine probe digest; 0L when absent *)
  h_binary : string;  (* MD5 of the producing executable *)
  h_payload : int;  (* payload bytes inside the seal *)
}

(* Closures restore only into the same code image, so the executable's
   digest rides in the header and gates the load with a typed error
   instead of a Marshal failure mid-parse.  Cached in an atomic, not a
   [lazy]: saves and loads run on pool domains, and concurrently forcing
   one lazy from two domains raises — a duplicated first computation is
   harmless. *)
let self_binary_cache = Atomic.make None

let self_binary () =
  match Atomic.get self_binary_cache with
  | Some d -> d
  | None ->
    let d =
      try Digest.to_hex (Digest.file Sys.executable_name)
      with _ -> "unknown"
    in
    Atomic.set self_binary_cache (Some d);
    d

let encode_header h =
  let b = Buffer.create 128 in
  Codec.W.str b h.h_kind;
  Codec.W.str b h.h_label;
  Codec.W.i64 b h.h_counter;
  Codec.W.i64 b h.h_cycle;
  Codec.W.i64 b h.h_probe;
  Codec.W.str b h.h_binary;
  Codec.W.u32 b h.h_payload;
  Buffer.contents b

let decode_header r =
  let h_kind = Codec.R.str r in
  let h_label = Codec.R.str r in
  let h_counter = Codec.R.i64 r in
  let h_cycle = Codec.R.i64 r in
  let h_probe = Codec.R.i64 r in
  let h_binary = Codec.R.str r in
  let h_payload = Codec.R.u32 r in
  { h_kind; h_label; h_counter; h_cycle; h_probe; h_binary; h_payload }

(* --- the freshness counter store --------------------------------------- *)

module Store = struct
  (* label -> latest counter, optionally persisted as one "label\tN"
     line per label.  The file is the trusted monotonic counter of the
     paper's freshness argument: rolled back alongside the images it
     protects, it would defeat the check, exactly as a rolled-back
     hardware counter would — the simulation keeps it in one place so
     experiments can also model that. *)
  type t = {
    path : string option;
    tbl : (string, int64) Hashtbl.t;
    lock : Mutex.t;
  }

  let in_memory () =
    { path = None; tbl = Hashtbl.create 8; lock = Mutex.create () }

  let load_file path tbl =
    match open_in path with
    | exception Sys_error _ -> ()
    | ic ->
      (try
         while true do
           let line = input_line ic in
           match String.index_opt line '\t' with
           | Some i ->
             let label = String.sub line 0 i in
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             (match Int64.of_string_opt v with
             | Some c -> Hashtbl.replace tbl label c
             | None -> ())
           | None -> ()
         done
       with End_of_file -> ());
      close_in ic

  let file path =
    let tbl = Hashtbl.create 8 in
    load_file path tbl;
    { path = Some path; tbl; lock = Mutex.create () }

  let persist t =
    match t.path with
    | None -> ()
    | Some path ->
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      Hashtbl.iter (fun label c -> Printf.fprintf oc "%s\t%Ld\n" label c) t.tbl;
      close_out oc;
      Sys.rename tmp path

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let latest t label =
    with_lock t (fun () ->
        Option.value (Hashtbl.find_opt t.tbl label) ~default:0L)

  let next t label =
    with_lock t (fun () ->
        let c =
          Int64.add (Option.value (Hashtbl.find_opt t.tbl label) ~default:0L) 1L
        in
        Hashtbl.replace t.tbl label c;
        persist t;
        c)
end

(* --- save -------------------------------------------------------------- *)

let sealer () = Sim_crypto.Sealer.create ~master_key

let save ~store ~kind ~label ~cycle ?(probe = 0L) payload ~path =
  let counter = Store.next store label in
  let h =
    {
      h_kind = kind;
      h_label = label;
      h_counter = counter;
      h_cycle = cycle;
      h_probe = probe;
      h_binary = self_binary ();
      h_payload = Bytes.length payload;
    }
  in
  let hdr = encode_header h in
  let plain = Bytes.cat (Bytes.of_string hdr) payload in
  let total = Bytes.length plain in
  let nchunks = (total + chunk_size - 1) / chunk_size in
  let sl = sealer () in
  let b = Buffer.create (total + 256) in
  Buffer.add_string b magic;
  Codec.W.u32 b (String.length hdr);
  Buffer.add_string b hdr;
  Codec.W.u32 b nchunks;
  for i = 0 to nchunks - 1 do
    let off = i * chunk_size in
    let len = min chunk_size (total - off) in
    let s =
      Sim_crypto.Sealer.seal sl ~vaddr:(Int64.of_int i) ~version:counter
        (Bytes.sub plain off len)
    in
    Codec.W.u32 b (Sim_crypto.Sealer.ciphertext_length s);
    Buffer.add_bytes b (Sim_crypto.Sealer.ciphertext s);
    Codec.W.i64 b (Sim_crypto.Sealer.mac s)
  done;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Buffer.output_buffer oc b;
  close_out oc;
  Sys.rename tmp path;
  counter

(* --- load -------------------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io_error msg)
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s

let ( let* ) = Result.bind

(* Structured parse of the outer container; every short read maps to
   [Truncated]. *)
let parse raw =
  let mlen = String.length magic in
  if String.length raw < mlen then Error Truncated
  else if not (String.equal (String.sub raw 0 mlen) magic) then Error Bad_magic
  else
    try
      let r = Codec.R.of_string raw in
      Codec.R.skip r mlen;
      let hlen = Codec.R.u32 r in
      let hdr_str = Codec.R.take r hlen in
      let h = decode_header (Codec.R.of_string hdr_str) in
      let nchunks = Codec.R.u32 r in
      let chunks =
        List.init nchunks (fun _ ->
            let clen = Codec.R.u32 r in
            let ciphertext = Bytes.of_string (Codec.R.take r clen) in
            let mac = Codec.R.i64 r in
            (ciphertext, mac))
      in
      Ok (h, hdr_str, chunks)
    with Codec.Short -> Error Truncated

let read_header ~path =
  let* raw = read_file path in
  let* h, _, _ = parse raw in
  Ok h

let unseal_chunks ~counter chunks =
  let sl = sealer () in
  let b = Buffer.create (chunk_size * List.length chunks) in
  let rec go i = function
    | [] -> Ok (Buffer.contents b)
    | (ciphertext, mac) :: rest -> (
      let s =
        Sim_crypto.Sealer.make ~ciphertext ~vaddr:(Int64.of_int i) ~version:counter
          ~mac
      in
      match
        Sim_crypto.Sealer.unseal sl ~vaddr:(Int64.of_int i)
          ~expected_version:counter s
      with
      | Ok plain ->
        Buffer.add_bytes b plain;
        go (i + 1) rest
      | Error _ -> Error (Tampered { chunk = i }))
  in
  go 0 chunks

let load ?store ?expect_kind ~path () =
  let* raw = read_file path in
  let* h, outer_hdr, chunks = parse raw in
  (* The MACs bind the counter, so an edited counter field dies here;
     a verbatim old image survives to the freshness check below. *)
  let* plain = unseal_chunks ~counter:h.h_counter chunks in
  let hlen = String.length outer_hdr in
  let* () =
    if String.length plain < hlen then Error Truncated
    else if not (String.equal (String.sub plain 0 hlen) outer_hdr) then
      Error Header_forged
    else Ok ()
  in
  let* () =
    if String.length plain - hlen <> h.h_payload then Error Truncated else Ok ()
  in
  let* () =
    match expect_kind with
    | Some k when k <> h.h_kind ->
      Error (Wrong_kind { expected = k; got = h.h_kind })
    | _ -> Ok ()
  in
  let* () =
    let self = self_binary () in
    if h.h_binary <> self then
      Error (Incompatible_binary { expected = h.h_binary; got = self })
    else Ok ()
  in
  let* () =
    match store with
    | None -> Ok ()
    | Some st ->
      let latest = Store.latest st h.h_label in
      if h.h_counter < latest then
        Error (Stale { label = h.h_label; counter = h.h_counter; latest })
      else Ok ()
  in
  let payload =
    Bytes.of_string (String.sub plain hlen (String.length plain - hlen))
  in
  Ok (h, payload)
