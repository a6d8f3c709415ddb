module W = Metrics.Words

type t = {
  tenants : int;
  by_class : (W.cls * int) list;
  reachable : int;
  slots : int;
  live_slots : int;
}

let measure ~root ~tenants walk =
  if tenants <= 0 then invalid_arg "Footprint.measure: tenants must be positive";
  let acc = W.create () in
  walk acc;
  {
    tenants;
    by_class = List.map (fun c -> (c, W.words acc c)) W.classes;
    reachable = Obj.reachable_words (Obj.repr root);
    slots = W.slots acc;
    live_slots = W.live_slots acc;
  }

let words t c = List.assoc c t.by_class

let unattributed t =
  List.fold_left (fun rest (_, w) -> rest - w) t.reachable t.by_class

let pp ~label ppf t =
  let bytes w = w * (Sys.word_size / 8) in
  let row name w =
    Format.fprintf ppf "  %-18s %12d %8.2f %12d@\n" name (bytes w)
      (float_of_int (bytes w) /. 1e6)
      (bytes w / t.tenants)
  in
  Format.fprintf ppf "footprint %s (%d tenants)@\n" label t.tenants;
  Format.fprintf ppf "  %-18s %12s %8s %12s@\n" "class" "bytes" "MB" "B/tenant";
  List.iter (fun (c, w) -> row (W.class_name c) w) t.by_class;
  row "unattributed" (unattributed t);
  row "reachable total" t.reachable;
  Format.fprintf ppf "  flat window slots %d, %d bound (%.1f%%)@\n" t.slots t.live_slots
    (if t.slots = 0 then 0.0 else 100.0 *. float_of_int t.live_slots /. float_of_int t.slots)
