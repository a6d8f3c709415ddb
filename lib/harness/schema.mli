(** Shape validation for the repo's committed benchmark reports
    ([BENCH_*.json]).

    Every report writer in the tree stamps a ["schema"] field
    (["autarky-perf/2"], ["autarky-serve/3"], ...).  This module holds
    the registry of known schemas — which top-level fields each must
    carry, with what JSON shape, and which keys every row of its array
    fields must have — and validates a parsed document against it.

    The CI [bench-validate] step runs {!validate_file} over every
    committed baseline: a writer that drifts from its declared schema
    (renamed field, missing row key, unregistered schema string) fails
    the gate before any consumer trips over the file.  Validation is
    shape-only; semantic invariants (arrival conservation, drift
    tolerances) belong to the [--check] gates. *)

(** Expected shape of a required field.  [Rows keys] is an array of
    objects, each of which must contain every key in [keys] (extra keys
    are allowed — adding a column is not a schema break; removing one
    is). *)
type field_kind = Bool | Num | Str | Obj | Rows of string list

type spec = { required : (string * field_kind) list }

val known : (string * spec) list
(** The registry, keyed by the exact ["schema"] string. *)

val validate : ctx:string -> Microjson.t -> (unit, string list) result
(** Check one parsed document: the ["schema"] field must name a
    registered schema and every required field must be present with the
    declared shape.  [ctx] prefixes the error messages (normally the
    file name).  [Error] collects every violation, not just the
    first. *)

val validate_file : string -> (unit, string list) result
(** {!validate} after {!Microjson.of_file}; parse and I/O errors are
    reported as a single-element [Error] rather than raised. *)
