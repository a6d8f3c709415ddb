type epcm_entry = {
  mutable valid : bool;
  mutable enclave_id : int;
  mutable vpage : Types.vpage;
  mutable perms : Types.perms;
  mutable ptype : Types.page_type;
  mutable pending : bool;
  mutable modified : bool;
  mutable blocked : bool;
}

(* The reverse index (enclave page -> frame) is one {!Flat} window per
   enclave, over that enclave's contiguous vpage range, in an array
   indexed by enclave id.  Ids count up from 1, so the array costs an
   empty window (five words) per enclave ever created; [drop_enclave]
   swaps a released enclave's window for an empty one.  No two ids
   share a window, not even an empty one, so a window restored from a
   snapshot is as private as the one captured.  The free pool is an
   int-array stack that pops frames 0, 1, 2, ... initially and is LIFO
   on release, exactly like the old cons-list free list.

   Free frames all hold the one shared [zero] payload, so a release
   allocates nothing.  The instructions that bind a frame either install
   the page's own payload (EADD, ELDU, EACCEPTCOPY) or a fresh zero page
   (EAUG), so the shared one is never written through. *)

type t = {
  entries : epcm_entry array;
  contents : Page_data.t array;
  zero : Page_data.t;
  free : int array;           (* free frames; top of stack at free_count-1 *)
  mutable free_count : int;
  mutable reverse : Flat.t array;  (* enclave id -> vpage -> frame *)
}

let windows n = Array.init n (fun _ -> Flat.create ())

let empty_entry () =
  {
    valid = false;
    enclave_id = -1;
    vpage = -1;
    perms = Types.perms_ro;
    ptype = Types.Pt_reg;
    pending = false;
    modified = false;
    blocked = false;
  }

let create ~frames =
  if frames <= 0 then invalid_arg "Epc.create: frames must be positive";
  let zero = Page_data.create () in
  {
    entries = Array.init frames (fun _ -> empty_entry ());
    contents = Array.make frames zero;
    zero;
    (* Arranged so the first pops yield frames 0, 1, 2, ... *)
    free = Array.init frames (fun i -> frames - 1 - i);
    free_count = frames;
    reverse = windows 8;
  }

let total_frames t = Array.length t.entries
let free_frames t = t.free_count

let alloc t =
  if t.free_count = 0 then -1
  else begin
    let f = t.free.(t.free_count - 1) in
    t.free_count <- t.free_count - 1;
    f
  end

let entry t frame = t.entries.(frame)
let data t frame = t.contents.(frame)
let set_data t frame d = t.contents.(frame) <- d

let release t frame =
  let e = t.entries.(frame) in
  (* VA pages are bound with [track_reverse:false] and a negative
     enclave id; they have no reverse entry to drop. *)
  if e.valid && e.enclave_id >= 0 && e.enclave_id < Array.length t.reverse then
    Flat.remove t.reverse.(e.enclave_id) e.vpage;
  e.valid <- false;
  e.pending <- false;
  e.modified <- false;
  e.blocked <- false;
  e.enclave_id <- -1;
  e.vpage <- -1;
  t.contents.(frame) <- t.zero;
  t.free.(t.free_count) <- frame;
  t.free_count <- t.free_count + 1

let frame_of_packed t ~enclave_id ~vpage =
  if enclave_id < 0 || enclave_id >= Array.length t.reverse then -1
  else Flat.find (Array.unsafe_get t.reverse enclave_id) vpage

let frame_of t ~enclave_id ~vpage =
  let f = frame_of_packed t ~enclave_id ~vpage in
  if f >= 0 then Some f else None

let frames_of_enclave t ~enclave_id =
  let acc = ref [] in
  Array.iteri
    (fun f e -> if e.valid && e.enclave_id = enclave_id then acc := f :: !acc)
    t.entries;
  List.rev !acc

let bind ?(track_reverse = true) t ~frame ~enclave_id ~vpage ~perms ~ptype ~pending =
  let e = t.entries.(frame) in
  if e.valid then Types.sgx_errorf "EPCM: frame %d already bound" frame;
  e.valid <- true;
  e.enclave_id <- enclave_id;
  e.vpage <- vpage;
  e.perms <- perms;
  e.ptype <- ptype;
  e.pending <- pending;
  e.modified <- false;
  e.blocked <- false;
  if track_reverse then begin
    let n = Array.length t.reverse in
    if enclave_id >= n then
      t.reverse <-
        Array.append t.reverse (windows (max n (enclave_id + 1 - n)));
    Flat.set t.reverse.(enclave_id) vpage frame
  end

let drop_enclave t ~enclave_id =
  if enclave_id >= 0 && enclave_id < Array.length t.reverse then
    t.reverse.(enclave_id) <- Flat.create ()
