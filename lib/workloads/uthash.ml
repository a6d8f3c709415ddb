(* Item [i] is two adjacent words of [items]: its address at [2i] and
   its chain successor at [2i + 1] (-1 ends the chain).  The key is the
   index itself, so a chain step compares without a load, and the
   successor sits next to the address it is read with. *)
type t = {
  vm : Vm.t;
  alloc : bytes:int -> int;
  item_bytes : int;
  items : int array;
  mutable heads : int array;   (* bucket -> item index, -1 empty *)
  mutable heads_base : int;    (* vaddr of the bucket-head array *)
  mutable bucket_count : int;
}

(* Multiplicative hash; deterministic so that experiments and attacks
   agree on bucket placement. *)
let hash key buckets = key * 0x9E3779B1 land max_int mod buckets

let head_addr t b = t.heads_base + (8 * b)
let[@inline] addr t idx = t.items.(2 * idx)
let[@inline] next t idx = t.items.((2 * idx) + 1)
let[@inline] set_next t idx n = t.items.((2 * idx) + 1) <- n

let insert t idx =
  let b = hash idx t.bucket_count in
  t.vm.Vm.read (head_addr t b);
  Vm.write_object t.vm ~addr:(addr t idx) ~bytes:t.item_bytes;
  set_next t idx t.heads.(b);
  t.heads.(b) <- idx;
  t.vm.Vm.write (head_addr t b)

let create ~vm ~alloc ~rng ~n_items ~item_bytes ~target_chain =
  if n_items <= 0 then invalid_arg "Uthash.create: n_items must be positive";
  if item_bytes <= 0 then invalid_arg "Uthash.create: item_bytes must be positive";
  if target_chain <= 0 then
    invalid_arg "Uthash.create: target_chain must be positive";
  let bucket_count = max 1 (n_items / target_chain) in
  let heads_base = alloc ~bytes:(8 * bucket_count) in
  let items = Array.make (2 * n_items) (-1) in
  for i = 0 to n_items - 1 do
    items.(2 * i) <- alloc ~bytes:item_bytes
  done;
  let t =
    {
      vm;
      alloc;
      item_bytes;
      items;
      heads = Array.make bucket_count (-1);
      heads_base;
      bucket_count;
    }
  in
  (* Insert in random order, as a populated table would have grown. *)
  let order = Array.init n_items (fun i -> i) in
  Metrics.Rng.shuffle rng order;
  Array.iter (fun idx -> insert t idx) order;
  t

let footprint t acc =
  List.iter
    (Metrics.Words.add_block acc Metrics.Words.Workload_tables)
    [ Obj.repr t; Obj.repr t.items; Obj.repr t.heads ]

let n_items t = Array.length t.items / 2
let n_buckets t = t.bucket_count

let mean_chain_length t =
  let used = Array.fold_left (fun acc h -> if h >= 0 then acc + 1 else acc) 0 t.heads in
  if used = 0 then 0.0 else float_of_int (n_items t) /. float_of_int used

(* Top level, so a lookup builds no closure. *)
let rec walk t key idx =
  if idx < 0 then false
  else begin
    let a = addr t idx in
    (* Key comparison touches the node's first cache line. *)
    t.vm.Vm.read a;
    t.vm.Vm.compute 8;
    if idx = key then begin
      Vm.read_object t.vm ~addr:a ~bytes:t.item_bytes;
      true
    end
    else walk t key (next t idx)
  end

let find t ~key =
  let b = hash key t.bucket_count in
  t.vm.Vm.read (head_addr t b);
  walk t key t.heads.(b)

let item_page t ~key = addr t key / Sgx.Types.page_bytes

let probe_pages t ~key =
  let b = hash key t.bucket_count in
  let acc = ref [ head_addr t b / Sgx.Types.page_bytes ] in
  let idx = ref t.heads.(b) in
  while !idx >= 0 do
    let a = addr t !idx in
    acc := (a / Sgx.Types.page_bytes) :: !acc;
    if !idx = key then begin
      (* Full value read may spill onto the next page. *)
      acc := ((a + t.item_bytes - 1) / Sgx.Types.page_bytes) :: !acc;
      idx := -1
    end
    else idx := next t !idx
  done;
  List.sort_uniq compare !acc

let rehash t =
  let new_count = t.bucket_count * 2 in
  let new_heads_base = t.alloc ~bytes:(8 * new_count) in
  let new_heads = Array.make new_count (-1) in
  t.bucket_count <- new_count;
  t.heads_base <- new_heads_base;
  for idx = 0 to n_items t - 1 do
    (* Relink in place: touch the node's link field, no data movement. *)
    t.vm.Vm.read (addr t idx);
    let b = hash idx new_count in
    set_next t idx new_heads.(b);
    new_heads.(b) <- idx;
    t.vm.Vm.write (addr t idx);
    t.vm.Vm.write (new_heads_base + (8 * b))
  done;
  t.heads <- new_heads

let item_pages t =
  List.init (n_items t) (fun idx ->
      let first = addr t idx / Sgx.Types.page_bytes in
      let last = (addr t idx + t.item_bytes - 1) / Sgx.Types.page_bytes in
      List.init (last - first + 1) (fun i -> first + i))
  |> List.concat
  |> List.sort_uniq compare

let head_pages t =
  let first = t.heads_base / Sgx.Types.page_bytes in
  let last = (t.heads_base + (8 * t.bucket_count) - 1) / Sgx.Types.page_bytes in
  List.init (last - first + 1) (fun i -> first + i)
