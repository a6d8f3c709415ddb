type block_kind = Smooth | Detailed

type t = {
  vm : Vm.t;
  blocks_w : int;
  blocks_h : int;
  (* code pages *)
  api_page : int;
  io_page : int;
  huffman_page : int;
  dequant_page : int;
  fast_idct : int;
  full_idct : int;
  color_page : int;
  (* temporary buffers (small, streaming) *)
  input_ring : int;      (* vaddr, 2 pages *)
  coef_buffer : int;     (* vaddr, 1 page *)
  row_buffer : int;      (* vaddr, 8 rows of width*3 bytes *)
  row_buffer_bytes : int;
}

let page = Sgx.Types.page_bytes

let alloc_code_page alloc = alloc ~bytes:page / page

let create ~vm ~alloc ~blocks_w ~blocks_h =
  if blocks_w <= 0 then invalid_arg "Jpeg.create: blocks_w must be positive";
  if blocks_h <= 0 then invalid_arg "Jpeg.create: blocks_h must be positive";
  let api_page = alloc_code_page alloc in
  let io_page = alloc_code_page alloc in
  let huffman_page = alloc_code_page alloc in
  let dequant_page = alloc_code_page alloc in
  let fast_idct = alloc_code_page alloc in
  let full_idct = alloc_code_page alloc in
  let color_page = alloc_code_page alloc in
  let row_buffer_bytes = 8 * blocks_w * 8 * 3 in
  {
    vm;
    blocks_w;
    blocks_h;
    api_page;
    io_page;
    huffman_page;
    dequant_page;
    fast_idct;
    full_idct;
    color_page;
    input_ring = alloc ~bytes:(2 * page);
    coef_buffer = alloc ~bytes:page;
    row_buffer = alloc ~bytes:row_buffer_bytes;
    row_buffer_bytes;
  }

let random_image ~rng ~blocks_w ~blocks_h ?(detail_fraction = 0.4) () =
  Array.init (blocks_w * blocks_h) (fun _ ->
      if Metrics.Rng.float rng < detail_fraction then Detailed else Smooth)

let exec_page t p = t.vm.Vm.exec (p * page)

let decode_block t ~input_cursor kind =
  (* Entropy decode: sequential input read + Huffman tables. *)
  exec_page t t.io_page;
  t.vm.Vm.read (t.input_ring + (input_cursor mod (2 * page)));
  exec_page t t.huffman_page;
  t.vm.Vm.compute 220;
  exec_page t t.dequant_page;
  t.vm.Vm.write t.coef_buffer;
  (* The secret-dependent step: blocks with few AC coefficients take the
     short IDCT path — a distinct code page. *)
  (match kind with
  | Smooth ->
    exec_page t t.fast_idct;
    t.vm.Vm.compute 150
  | Detailed ->
    exec_page t t.full_idct;
    t.vm.Vm.compute 600);
  exec_page t t.color_page;
  t.vm.Vm.compute 120

let decode t ~image ?output_base () =
  assert (Array.length image = t.blocks_w * t.blocks_h);
  let input_cursor = ref 0 in
  for by = 0 to t.blocks_h - 1 do
    for bx = 0 to t.blocks_w - 1 do
      decode_block t ~input_cursor:!input_cursor image.((by * t.blocks_w) + bx);
      input_cursor := !input_cursor + 96;
      (* 8x8 RGB output into the row buffer (3 cache lines). *)
      let pos = bx * 8 * 3 mod t.row_buffer_bytes in
      Vm.write_object t.vm ~addr:(t.row_buffer + pos) ~bytes:192
    done;
    (* End of a block row: stream the 8 finished scanlines out. *)
    (match output_base with
    | Some base ->
      let row_bytes = t.blocks_w * 8 * 3 in
      for r = 0 to 7 do
        let row = (by * 8) + r in
        Vm.read_object t.vm ~addr:t.row_buffer ~bytes:row_bytes;
        Vm.write_object t.vm ~addr:(base + (row * row_bytes)) ~bytes:row_bytes
      done
    | None -> ());
    t.vm.Vm.progress ()
  done

let output_bytes t = t.blocks_w * 8 * t.blocks_h * 8 * 3

let invert_colors t ~output_base =
  let total = output_bytes t in
  let stride = 4 * page in
  let off = ref 0 in
  while !off < total do
    let chunk = min stride (total - !off) in
    Vm.read_object t.vm ~addr:(output_base + !off) ~bytes:chunk;
    t.vm.Vm.compute (chunk / 8);
    Vm.write_object t.vm ~addr:(output_base + !off) ~bytes:chunk;
    t.vm.Vm.progress ();
    off := !off + chunk
  done

let encode t ~image ?input_base () =
  let input_cursor = ref 0 in
  for by = 0 to t.blocks_h - 1 do
    (match input_base with
    | Some base ->
      let row_bytes = t.blocks_w * 8 * 3 in
      for r = 0 to 7 do
        Vm.read_object t.vm ~addr:(base + (((by * 8) + r) * row_bytes)) ~bytes:row_bytes
      done
    | None -> ());
    for bx = 0 to t.blocks_w - 1 do
      let kind = image.((by * t.blocks_w) + bx) in
      exec_page t t.color_page;
      (match kind with
      | Smooth ->
        exec_page t t.fast_idct;
        t.vm.Vm.compute 150
      | Detailed ->
        exec_page t t.full_idct;
        t.vm.Vm.compute 600);
      exec_page t t.huffman_page;
      t.vm.Vm.compute 260;
      exec_page t t.io_page;
      t.vm.Vm.write (t.input_ring + (!input_cursor mod (2 * page)));
      input_cursor := !input_cursor + 64
    done;
    t.vm.Vm.progress ()
  done

let code_pages t =
  [
    t.api_page; t.io_page; t.huffman_page; t.dequant_page; t.fast_idct;
    t.full_idct; t.color_page;
  ]

let temp_pages t =
  let range base bytes =
    let first = base / page and last = (base + bytes - 1) / page in
    List.init (last - first + 1) (fun i -> first + i)
  in
  range t.input_ring (2 * page)
  @ range t.coef_buffer page
  @ range t.row_buffer t.row_buffer_bytes
  |> List.sort_uniq compare

let fast_idct_page t = t.fast_idct
let full_idct_page t = t.full_idct

let expected_trace t ~image =
  let rec collapse last acc = function
    | [] -> List.rev acc
    | k :: rest ->
      if last = Some k then collapse last acc rest
      else collapse (Some k) (k :: acc) rest
  in
  ignore t;
  collapse None [] (Array.to_list image)
