(** A FreeType-style font rasterizer model (§7.3, Table 2).

    Rendering a glyph executes a glyph-dependent sequence of rasterizer
    code pages (outline decomposition, spline flattening, hinting,
    filling — which paths run depends on the glyph's shape).  Xu et al.
    recovered rendered text purely from this code-page trace.  The
    rasterizer's code and working buffers are small, so Autarky defeats
    the attack automatically by pinning every page, with no measurable
    overhead (Table 2's 1× row). *)

type t

val create :
  vm:Vm.t -> alloc:(bytes:int -> int) -> glyphs:int -> code_pages:int -> t
(** A font of [glyphs] glyphs over a rasterizer of [code_pages] code
    pages.  Raises [Invalid_argument] naming [glyphs] unless it is
    positive, or [code_pages] unless it is at least 2. *)

val render_glyph : t -> int -> unit
val render : t -> int array -> unit
(** Render a text (array of glyph ids); one progress event per glyph. *)

val code_pages : t -> int list
val bitmap_pages : t -> int list

val glyph_signature : t -> int -> int list
(** The code-page sequence glyph [g] executes (attack ground truth). *)

val glyph_count : t -> int
