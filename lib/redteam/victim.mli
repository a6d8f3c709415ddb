(** The red-team suite's common victim: a secret-dependent workload
    whose per-request symbol is exposed through every controlled
    channel the simulator models at once.

    Each request [r] processes one secret symbol [s = secret.(r)] of an
    [alphabet]-sized alphabet and touches memory so that:

    - the number of scratch-page accesses before the marker-page access
      equals [s + 1] (the access-count channel CopyCat-style
      single-stepping reads, Moghimi et al.);
    - code page [code_base + s] is executed (the branch-trace channel
      of Branch Shadowing, Lee et al.);
    - data page [data_page v s] is read (the demand-paging / fault
      channel of Pigeonhole-style attacks, Shinde et al.).

    Every request performs the same total number of accesses regardless
    of [s], so nothing is leaked through lengths — only through the
    channels above.  The victim is built on {!Harness.System} under one
    of the paper's three policies (or as a legacy baseline enclave) and
    either SGX paging mechanism, with a streaming trace digest for
    determinism checks. *)

(** Which defense the enclave runs.  [Baseline] is a legacy (non
    self-paging) enclave; the other three are Autarky self-paging
    enclaves under the §5.2 policies. *)
type policy = Baseline | Rate_limit | Clusters | Oram

val policy_name : policy -> string
val policy_of_name : string -> policy option
val all_policies : policy list
(** [Baseline; Rate_limit; Clusters; Oram] — canonical order. *)

type config = {
  policy : policy;
  mech : Autarky.Pager.mech;  (** ignored for [Baseline] (always SGXv1) *)
  symbols : int;  (** number of requests, each processing one symbol *)
  alphabet : int;  (** symbol alphabet size [N >= 2] *)
  seed : int;  (** seeds the secret and every other RNG *)
}

type t

val create : config -> t
(** Build the full platform (machine, kernel, enclave, policy wiring)
    and derive the secret.  Deterministic in [config].
    @raise Invalid_argument on non-positive [symbols] or [alphabet < 2]. *)

(** How a full run ended: every request completed, or the enclave was
    terminated (an Autarky detection) with the runtime's reason. *)
type outcome = Completed | Terminated of string

val run : t -> before:(int -> unit) -> after:(int -> unit) -> outcome
(** Process every request in order.  [before r] / [after r] run outside
    the enclave around request [r] — the adversary's foothold.  [after]
    is not called for a request cut short by termination.  A victim can
    only be run once. *)

(** {1 Topology (what the adversary is assumed to know)} *)

val config : t -> config
val alphabet : t -> int
val symbols : t -> int
val policy : t -> policy
val scratch : t -> Sgx.Types.vpage
val marker : t -> Sgx.Types.vpage
val code_base : t -> Sgx.Types.vpage
(** [alphabet] consecutive code pages; page [code_base + s] is executed
    by a request processing symbol [s]. *)

val data_page : t -> int -> Sgx.Types.vpage
(** The data page read by a request processing symbol [s]. *)

val symbol_of_data_vpage : t -> Sgx.Types.vpage -> int option
val symbol_of_code_vpage : t -> Sgx.Types.vpage -> int option

(** {1 Platform access (the adversary is the OS)} *)

val sys : t -> Harness.System.t
val os : t -> Sim_os.Kernel.t
val proc : t -> Sim_os.Kernel.proc
val cpu : t -> Sgx.Cpu.t

(** {1 Ground truth and determinism} *)

val secret : t -> int array
(** The secret symbol sequence (a copy) — ground truth for scoring an
    adversary's guesses, never readable through the simulated platform. *)

val digest : t -> string
(** Streaming FNV-1a digest of the victim's full trace so far
    (["fnv64:..."]) — the determinism witness for jobs-invariance
    tests. *)
