(** A libjpeg-style streaming JPEG codec model (§7.3, Table 2).

    The codec streams over the image in 8×8-coefficient blocks, keeping
    only a small temporary working buffer — so its working set is
    independent of image size and fits in the EPC, which is why Autarky
    protects the library automatically by pinning it.

    The controlled-channel leak it reproduces is the one Xu et al.
    exploited: the inverse DCT elides work for blocks whose AC
    coefficients are (near-)zero, so *which code path runs per block*
    depends on image content.  The model executes one of two code pages
    per block (full vs. fast IDCT); tracing those code pages recovers the
    per-block complexity map — a thumbnail of the secret image.

    The decoded output can be written to a caller-designated large
    buffer, modelling the image-processing pipeline of §7.3 where the
    decoded image exceeds the EPC and is deliberately OS-managed. *)

type t

(** The secret: each block is either Smooth (fast IDCT path) or
    Detailed (full IDCT path). *)
type block_kind = Smooth | Detailed

val create :
  vm:Vm.t -> alloc:(bytes:int -> int) -> blocks_w:int -> blocks_h:int -> t
(** Allocate the codec's code pages and temporary buffers for a
    [blocks_w × blocks_h]-block image (pixel size is 8× that).  Raises
    [Invalid_argument] naming [blocks_w] or [blocks_h] unless it is
    positive. *)

val random_image :
  rng:Metrics.Rng.t -> blocks_w:int -> blocks_h:int -> ?detail_fraction:float ->
  unit -> block_kind array
(** A synthetic image complexity map ([detail_fraction] defaults
    to 0.4). *)

val decode : t -> image:block_kind array -> ?output_base:int -> unit -> unit
(** Decode: per block, read input (sequential), run the secret-dependent
    IDCT path, write 8×8×3 output bytes (to the temp buffer, or
    streamed to [output_base] when given). Emits one progress event per
    block row. *)

val invert_colors : t -> output_base:int -> unit
(** Pipeline stage: data-independent pass over the decoded buffer. *)

val encode : t -> image:block_kind array -> ?input_base:int -> unit -> unit
(** Re-encode (streaming read of the buffer + sequential output). *)

val code_pages : t -> int list
(** All codec code pages (to pin or cluster). *)

val temp_pages : t -> int list
(** Temporary-buffer pages (small, secret-dependent access). *)

val fast_idct_page : t -> int
val full_idct_page : t -> int
(** The two secret-dependent code pages (attack targets). *)

val output_bytes : t -> int
(** Decoded image size in bytes: [blocks_w*8 * blocks_h*8 * 3]. *)

val expected_trace : t -> image:block_kind array -> block_kind list
(** Ground truth for the oracle: per-block path choices, with immediate
    repeats collapsed the way a page-fault trace collapses them. *)
