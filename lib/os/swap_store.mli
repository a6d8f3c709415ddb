(** Untrusted backing store for evicted enclave pages.

    Holds each swapped-out page as its sealed row
    ({!Sim_crypto.Sealer.sealed}) and its PCMD int in (simulated)
    regular memory.  A page EWB evicted carries the hardware PCMD
    (see {!Sgx.Instructions}, non-negative); a page the enclave
    runtime sealed itself (SGXv2) carries {!runtime_sealed}, whose sign
    bit tells the two apart.  Being untrusted, the store exposes raw
    replace/steal operations that attack drivers use to attempt
    tampering and replay — which ELDU / the runtime's unsealing must
    catch.

    Layout: a {!Sgx.Flat} index from vpage to slot over a row array and
    a PCMD array, with freed slots reused.  Every operation is O(1); the
    per-page EWB/ELDU path ({!put}, {!slot}, {!row_at}, {!pcmd_at},
    {!delete}) allocates nothing beyond the row itself.  The tables
    start at 64 slots and double as pages are evicted, so a process
    that never pages keeps them small. *)

type t

val runtime_sealed : int
(** [-1]: the PCMD stored with a runtime-sealed (SGXv2) row. *)

val create : unit -> t
val put : t -> Sgx.Types.vpage -> Sim_crypto.Sealer.sealed -> pcmd:int -> unit

val slot : t -> Sgx.Types.vpage -> int
(** The slot holding the page's row, or [-1]: {!peek} without the
    [option]. *)

val row_at : t -> int -> Sim_crypto.Sealer.sealed
val pcmd_at : t -> int -> int
(** The row and PCMD in a slot returned by {!slot} (valid until the
    page's entry is replaced or deleted). *)

val peek : t -> Sgx.Types.vpage -> (Sim_crypto.Sealer.sealed * int) option
val mem : t -> Sgx.Types.vpage -> bool
val size : t -> int

val iter : (Sim_crypto.Sealer.sealed -> int -> unit) -> t -> unit
(** Each stored row with its PCMD, in ascending vpage order. *)

val replace_raw : t -> Sgx.Types.vpage -> Sim_crypto.Sealer.sealed -> pcmd:int -> unit
(** Adversarial: overwrite a stored entry without any checks ({!put} by
    another name: the store checks nothing either way). *)

val delete : t -> Sgx.Types.vpage -> unit
(** Adversarial: drop a stored entry (the OS "loses" an evicted page). *)
