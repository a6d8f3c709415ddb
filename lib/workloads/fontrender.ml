type t = {
  vm : Vm.t;
  code_base : int;       (* first code page *)
  code_page_count : int;
  glyph_signatures : int array array;  (* glyph -> code page sequence *)
  bitmap_base : int;
  bitmap_bytes : int;
}

let page = Sgx.Types.page_bytes

(* Deterministic per-glyph control-flow signature: which rasterizer code
   pages run, and in what order, depends on the glyph's outline — the
   structure the published attack matched against rendered text. *)
let signature_of_glyph ~code_pages glyph =
  let mix = Metrics.Rng.create ~seed:(Int64.of_int ((glyph * 2654435761) + 17)) in
  let len = 3 + Metrics.Rng.int mix 4 in
  Array.init len (fun _ -> Metrics.Rng.int mix code_pages)

let create ~vm ~alloc ~glyphs ~code_pages =
  if glyphs <= 0 then invalid_arg "Fontrender.create: glyphs must be positive";
  if code_pages < 2 then invalid_arg "Fontrender.create: code_pages must be at least 2";
  let code_base = alloc ~bytes:(code_pages * page) / page in
  let bitmap_bytes = 4 * page in
  {
    vm;
    code_base;
    code_page_count = code_pages;
    glyph_signatures = Array.init glyphs (fun g -> signature_of_glyph ~code_pages g);
    bitmap_base = alloc ~bytes:bitmap_bytes;
    bitmap_bytes;
  }

let render_glyph t glyph =
  let signature = t.glyph_signatures.(glyph) in
  Array.iter
    (fun p ->
      t.vm.Vm.exec ((t.code_base + p) * page);
      t.vm.Vm.compute 400)
    signature;
  (* Rasterize into the (small, reused) bitmap buffer. *)
  Vm.write_object t.vm ~addr:t.bitmap_base ~bytes:512

let render t text =
  Array.iter
    (fun glyph ->
      render_glyph t glyph;
      t.vm.Vm.progress ())
    text

let code_pages t = List.init t.code_page_count (fun i -> t.code_base + i)
let bitmap_pages t =
  let first = t.bitmap_base / page in
  List.init (t.bitmap_bytes / page) (fun i -> first + i)

let glyph_signature t glyph =
  Array.to_list (Array.map (fun p -> t.code_base + p) t.glyph_signatures.(glyph))

let glyph_count t = Array.length t.glyph_signatures
