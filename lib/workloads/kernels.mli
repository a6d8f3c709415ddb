(** The 14 Phoenix and PARSEC applications of the rate-limited-paging
    experiment (§7.2, Fig. 7), as parameterized synthetic kernels.

    The experiment's outcome depends on each application's working-set
    size relative to the ~100 MB EPC, its locality, and its compute
    density — so each kernel is specified by exactly those parameters,
    set to reproduce the fault-rate spread the paper reports (near zero
    for the in-EPC applications, tens of thousands of faults per second
    for canneal/dedup-class applications).  The access engine draws a hot
    page with probability [1 - cold_fraction] and a uniformly random
    working-set page otherwise, with a configurable write mix, charging
    [compute_per_access] cycles of pure compute per access. *)

type spec = {
  k_name : string;
  suite : [ `Phoenix | `Parsec ];
  ws_pages : int;          (** total working set, pages *)
  hot_pages : int;         (** hot subset kept, page-locality core *)
  cold_fraction : float;   (** probability an access leaves the hot set *)
  write_fraction : float;
  compute_per_access : int;
  accesses_per_unit : int; (** accesses per progress unit *)
}

val suite : spec list
(** kmeans, linear_regression, word_count, pca, string_match,
    matrix_multiply (Phoenix); bodytrack, canneal, streamcluster,
    swaptions, dedup, blackscholes, fluidanimate, x264 (PARSEC). *)

val find : string -> spec
(** Raises [Not_found] for an unknown name. *)

val run :
  spec -> vm:Vm.t -> rng:Metrics.Rng.t -> ?base_page:int -> units:int ->
  unit -> unit
(** Execute [units] progress units of the kernel, with its working set
    at [base_page] (default 0).  Raises [Invalid_argument] naming
    [units] unless it is positive. *)

val touch_all : spec -> vm:Vm.t -> ?base_page:int -> unit -> unit
(** Touch every working-set page once (warmup). *)
