(** A Hunspell-style spell-checking server (§7.3, Table 2).

    Each dictionary is a chained hash table of words.  Checking a word
    hashes it, reads the bucket head, and walks the chain comparing
    entries — so each word has a distinctive page-access signature, which
    is exactly what the published attack matched to recover the text
    being checked.

    The multi-dictionary server scenario: many dictionaries are loaded
    (together exceeding the EPC), each dictionary's pages form one
    cluster, and a spell-check run faults in the whole dictionary at
    once — the attacker learns which *language* is in use, not which
    words. *)

type dictionary

val load_dictionary :
  vm:Vm.t -> alloc:(bytes:int -> int) -> rng:Metrics.Rng.t ->
  name:string -> n_words:int -> ?entry_bytes:int -> unit -> dictionary
(** Build a dictionary of [n_words] synthetic words ([entry_bytes]
    defaults to 64 — a word plus affix flags).  Raises [Invalid_argument]
    naming [n_words] unless it is positive (and, from {!Uthash.create},
    [item_bytes] unless [entry_bytes] is). *)

val name : dictionary -> string
val n_words : dictionary -> int

val pages : dictionary -> int list
(** All pages of the dictionary (bucket heads + entries): the cluster. *)

val check : dictionary -> word:int -> bool
(** Spell-check word id [word] (ids in [0, n_words) are correct words;
    larger ids miss after a full chain walk). Emits one progress event. *)

val word_text : rng:Metrics.Rng.t -> vocabulary:int -> length:int -> int array
(** A synthetic text: [length] word ids Zipf-distributed over
    [vocabulary] words, like natural language. *)

val signature : dictionary -> word:int -> int list
(** The pages [check] would touch for this word (ground truth for the
    attack oracle), ascending. *)
