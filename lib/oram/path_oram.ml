type metadata = [ `Direct | `Oblivious_scan ]

(* The tree and the stash hold block ids only; a block's payload stays
   at [payload.(blk)] from its first access on, so moving a block
   between the tree and the stash is one int store and never touches a
   payload pointer.  Where a payload sits on the host is not part of
   the model: the leaf trace, the placement and every charge depend on
   the ids alone. *)
type t = {
  clock : Metrics.Clock.t;
  rng : Metrics.Rng.t;
  z : int;
  metadata : metadata;
  n_blocks : int;
  leaves : int;
  levels : int;
  (* Bucket [b] (heap layout, root 0) owns slots [b*z, b*z + z); -1 is
     an empty slot. *)
  tree : int array;
  posmap : int array;
  payload : Sgx.Page_data.t array;
  (* Stash: entries [0, st_n) of [stash] are live; [in_stash.(blk)] is
     the entry index or -1. *)
  mutable stash : int array;
  mutable st_n : int;
  in_stash : int array;
  stash_capacity : int;
  mutable tracing : bool;
  mutable trace : int list;
  c_access : Metrics.Counters.cell;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ~clock ~rng ?(z = 4) ?(metadata = `Direct) ~n_blocks () =
  if n_blocks <= 0 then
    invalid_arg (Printf.sprintf "Path_oram.create: n_blocks %d is not positive" n_blocks);
  if z <= 0 then invalid_arg (Printf.sprintf "Path_oram.create: z %d is not positive" z);
  let leaves = pow2_at_least (max 2 n_blocks) 1 in
  let levels =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    log2 leaves + 1
  in
  let bucket_count = (2 * leaves) - 1 in
  let posmap = Array.init n_blocks (fun _ -> Metrics.Rng.int rng leaves) in
  {
    clock;
    rng;
    z;
    metadata;
    n_blocks;
    leaves;
    levels;
    tree = Array.make (bucket_count * z) (-1);
    posmap;
    (* Unread until a block's first access replaces its entry. *)
    payload = Array.make n_blocks (Sgx.Page_data.create ());
    stash = Array.make 256 (-1);
    st_n = 0;
    in_stash = Array.make n_blocks (-1);
    stash_capacity = 128;
    tracing = false;
    trace = [];
    c_access = Metrics.Counters.cell (Metrics.Clock.counters clock) "oram.access";
  }

let n_blocks t = t.n_blocks
let levels t = t.levels
let leaves t = t.leaves
let stash_size t = t.st_n
let set_tracing t b = t.tracing <- b
let trace t = t.trace

(* --- Stash ----------------------------------------------------------- *)

let stash_add t blk =
  if t.st_n = Array.length t.stash then begin
    let grown = Array.make (2 * t.st_n) (-1) in
    Array.blit t.stash 0 grown 0 t.st_n;
    t.stash <- grown
  end;
  t.stash.(t.st_n) <- blk;
  t.in_stash.(blk) <- t.st_n;
  t.st_n <- t.st_n + 1

(* Swap-with-last removal: the caller scanning forward must re-examine
   index [i] afterwards. *)
let stash_remove_at t i =
  let last = t.st_n - 1 in
  t.in_stash.(t.stash.(i)) <- -1;
  if i < last then begin
    let moved = t.stash.(last) in
    t.stash.(i) <- moved;
    t.in_stash.(moved) <- i
  end;
  t.st_n <- last

(* --- Costs ----------------------------------------------------------- *)

let model t = Metrics.Clock.model t.clock

let slot_move_cost t =
  let m = model t in
  m.dram_access + Metrics.Cost_model.sw_page_crypto m

let metadata_cost t =
  let m = model t in
  match t.metadata with
  | `Direct ->
    (* Position map and stash are directly addressable: they live in
       enclave-managed pinned pages whose accesses Autarky hides. *)
    2 * m.mem_access
  | `Oblivious_scan ->
    (* CMOV linear scans of the position map (4 B/entry) and the stash
       (page-sized blocks), once each per access. *)
    Sim_crypto.Oblivious.scan_cost m ~entries:t.n_blocks ~entry_bytes:4
    + Sim_crypto.Oblivious.scan_cost m ~entries:t.stash_capacity
        ~entry_bytes:m.page_bytes

let access_cost t =
  let eviction_scans =
    match t.metadata with
    | `Direct -> 0
    | `Oblivious_scan ->
      let m = model t in
      t.levels
      * Sim_crypto.Oblivious.scan_cost m ~entries:t.stash_capacity
          ~entry_bytes:m.page_bytes
  in
  (2 * t.levels * t.z * slot_move_cost t) + metadata_cost t + eviction_scans

(* --- Paths ----------------------------------------------------------- *)

(* In 1-based heap numbering leaf [leaf] is node [leaves + leaf] and a
   node's ancestor [k] levels up is the node shifted right by [k]: the
   level-[l] bucket on the path to [leaf] is
   [((leaves + leaf) lsr (levels - 1 - l)) - 1], and a block mapped to
   leaf [p] may live there iff [(p lxor leaf) lsr (levels - 1 - l) = 0]. *)

let read_path t leaf =
  Metrics.Clock.charge t.clock (t.levels * t.z * slot_move_cost t);
  for level = 0 to t.levels - 1 do
    let base = (((t.leaves + leaf) lsr (t.levels - 1 - level)) - 1) * t.z in
    for s = base to base + t.z - 1 do
      let blk = t.tree.(s) in
      if blk >= 0 then begin
        stash_add t blk;
        t.tree.(s) <- -1
      end
    done
  done

(* Greedily place the first stash blocks eligible for the bucket whose
   slots start at [base], filling slots [0, z).  [i] re-examines its
   index after a removal (swap-with-last). *)
let rec place_level t ~leaf ~shift ~base placed i =
  if placed < t.z && i < t.st_n then begin
    let blk = t.stash.(i) in
    if (t.posmap.(blk) lxor leaf) lsr shift = 0 then begin
      t.tree.(base + placed) <- blk;
      stash_remove_at t i;
      place_level t ~leaf ~shift ~base (placed + 1) i
    end
    else place_level t ~leaf ~shift ~base placed (i + 1)
  end

let write_path t leaf =
  Metrics.Clock.charge t.clock (t.levels * t.z * slot_move_cost t);
  (* Without directly-addressable metadata, the greedy eviction must
     select blocks with one oblivious stash scan per bucket — the
     dominant cost of CMOV-based ORAM implementations. *)
  (match t.metadata with
  | `Direct -> ()
  | `Oblivious_scan ->
    let m = model t in
    Metrics.Clock.charge t.clock
      (t.levels
      * Sim_crypto.Oblivious.scan_cost m ~entries:t.stash_capacity
          ~entry_bytes:m.page_bytes));
  for level = t.levels - 1 downto 0 do
    let shift = t.levels - 1 - level in
    let base = (((t.leaves + leaf) lsr shift) - 1) * t.z in
    place_level t ~leaf ~shift ~base 0 0
  done

let access t ~block f =
  if block < 0 || block >= t.n_blocks then
    invalid_arg (Printf.sprintf "Path_oram.access: block %d of %d" block t.n_blocks);
  Metrics.Clock.charge t.clock (metadata_cost t);
  let leaf = t.posmap.(block) in
  if t.tracing then t.trace <- leaf :: t.trace;
  t.posmap.(block) <- Metrics.Rng.int t.rng t.leaves;
  read_path t leaf;
  if t.in_stash.(block) < 0 then begin
    (* First access to this block: materialize a zero page. *)
    t.payload.(block) <- Sgx.Page_data.create ();
    stash_add t block
  end;
  f t.payload.(block);
  write_path t leaf;
  Metrics.Counters.cell_incr t.c_access

let read t ~block =
  access t ~block ignore;
  Sgx.Page_data.copy t.payload.(block)

let write t ~block data =
  access t ~block (fun d ->
      let src = Sgx.Page_data.to_bytes data in
      let dst = Sgx.Page_data.to_bytes d in
      let n = min (Bytes.length src) (Bytes.length dst) in
      Bytes.blit src 0 dst 0 n)
