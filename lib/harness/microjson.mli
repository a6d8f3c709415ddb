(** Minimal JSON reader for the repo's own report files
    ([BENCH_*.json]).

    The pinned dependency set (autarky.opam) carries no JSON library;
    this covers exactly the grammar our writers emit.  Not a general
    parser — no surrogate pairs, no tolerance for malformed input. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val of_string : string -> t
val of_file : string -> t
(** @raise Parse_error on malformed input; [Sys_error] on I/O failure. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val mem_exn : ctx:string -> string -> t -> t
(** @raise Parse_error (mentioning [ctx]) when the field is absent. *)

val str : ctx:string -> t -> string
val num : ctx:string -> t -> float
val int_ : ctx:string -> t -> int
val bool_ : ctx:string -> t -> bool
val arr : ctx:string -> t -> t list
(** Typed projections; @raise Parse_error (mentioning [ctx]) on shape
    mismatch.  [int_] also rejects a number that is not integral or
    lies outside the native [int] range. *)
