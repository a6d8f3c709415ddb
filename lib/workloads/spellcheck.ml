type dictionary = {
  dict_name : string;
  table : Uthash.t;
  vm : Vm.t;
}

let load_dictionary ~vm ~alloc ~rng ~name ~n_words ?(entry_bytes = 64) () =
  if n_words <= 0 then
    invalid_arg "Spellcheck.load_dictionary: n_words must be positive";
  let table =
    Uthash.create ~vm ~alloc ~rng ~n_items:n_words ~item_bytes:entry_bytes
      ~target_chain:4
  in
  { dict_name = name; table; vm }

let name d = d.dict_name
let n_words d = Uthash.n_items d.table

let pages d =
  List.sort_uniq compare (Uthash.item_pages d.table @ Uthash.head_pages d.table)

let check d ~word =
  let found = Uthash.find d.table ~key:word in
  d.vm.Vm.progress ();
  found

let word_text ~rng ~vocabulary ~length =
  let dist = Metrics.Dist.zipfian ~theta:0.95 ~n:vocabulary () in
  Array.init length (fun _ -> Metrics.Dist.sample dist rng)

let signature d ~word = Uthash.probe_pages d.table ~key:word
