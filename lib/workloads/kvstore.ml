type t = {
  vm : Vm.t;
  value_bytes : int;
  index_base : int;
  index_buckets : int;
  item_addr : int array;      (* key -> chunk address *)
  slab_first_page : int;
  slab_page_count : int;
}

let chunk_bytes value_bytes =
  (* Item header (key, flags, CAS, LRU links) plus the value, rounded to
     a cache line as Memcached's slab classes do. *)
  let raw = value_bytes + 64 in
  (raw + 63) / 64 * 64

let create ~vm ~alloc ~rng ~n_entries ~value_bytes ?(slab_pages = 16) () =
  if n_entries <= 0 then invalid_arg "Kvstore.create: n_entries must be positive";
  if value_bytes <= 0 then
    invalid_arg "Kvstore.create: value_bytes must be positive";
  if slab_pages <= 0 then invalid_arg "Kvstore.create: slab_pages must be positive";
  let index_buckets = n_entries in
  let index_base = alloc ~bytes:(8 * index_buckets) in
  let chunk = chunk_bytes value_bytes in
  let chunks_per_slab = max 1 (slab_pages * Sgx.Types.page_bytes / chunk) in
  let n_slabs = (n_entries + chunks_per_slab - 1) / chunks_per_slab in
  let slab_bases =
    Array.init n_slabs (fun _ -> alloc ~bytes:(slab_pages * Sgx.Types.page_bytes))
  in
  let item_addr =
    Array.init n_entries (fun i ->
        let slab = i / chunks_per_slab and off = i mod chunks_per_slab in
        slab_bases.(slab) + (off * chunk))
  in
  let first_page = Array.fold_left (fun acc b -> min acc (b / Sgx.Types.page_bytes))
      max_int slab_bases
  in
  let last_page =
    Array.fold_left
      (fun acc b ->
        max acc ((b + (slab_pages * Sgx.Types.page_bytes) - 1) / Sgx.Types.page_bytes))
      0 slab_bases
  in
  let t =
    {
      vm;
      value_bytes;
      index_base;
      index_buckets;
      item_addr;
      slab_first_page = first_page;
      slab_page_count = last_page - first_page + 1;
    }
  in
  (* Populate: SET every item (in random order, as a warm server). *)
  let order = Array.init n_entries (fun i -> i) in
  Metrics.Rng.shuffle rng order;
  Array.iter
    (fun key ->
      vm.Vm.read (index_base + (8 * (key mod index_buckets)));
      Vm.write_object vm ~addr:item_addr.(key) ~bytes:(chunk_bytes value_bytes);
      vm.Vm.write (index_base + (8 * (key mod index_buckets))))
    order;
  t

let n_entries t = Array.length t.item_addr

let footprint t acc =
  Metrics.Words.add_block acc Metrics.Words.Workload_tables t;
  Metrics.Words.add_block acc Metrics.Words.Workload_tables t.item_addr

let get t ~key =
  if key < 0 || key >= n_entries t then false
  else begin
    t.vm.Vm.read (t.index_base + (8 * (key mod t.index_buckets)));
    t.vm.Vm.compute 60;  (* hash + protocol parsing *)
    Vm.read_object t.vm ~addr:t.item_addr.(key) ~bytes:t.value_bytes;
    t.vm.Vm.progress ();
    true
  end

let set t ~key =
  if key >= 0 && key < n_entries t then begin
    t.vm.Vm.read (t.index_base + (8 * (key mod t.index_buckets)));
    t.vm.Vm.compute 60;
    Vm.write_object t.vm ~addr:t.item_addr.(key) ~bytes:t.value_bytes;
    t.vm.Vm.progress ()
  end

let item_pages t =
  List.init t.slab_page_count (fun i -> t.slab_first_page + i)

let index_pages t =
  let first = t.index_base / Sgx.Types.page_bytes in
  let last = (t.index_base + (8 * t.index_buckets) - 1) / Sgx.Types.page_bytes in
  List.init (last - first + 1) (fun i -> first + i)

let data_region t = (t.slab_first_page, t.slab_page_count)
