(* Minimal recursive-descent JSON reader — just enough to load the
   reports this repo itself emits (BENCH_perf.json, BENCH_serve.json:
   objects, arrays, strings with the escapes our writers produce,
   numbers, booleans, null).  Exists because the toolchain is pinned
   (autarky.opam) and none of the pinned deps parse JSON; do not grow
   it into a general parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected %C at offset %d, got %C" ch c.pos x
  | None -> fail "expected %C at offset %d, got end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "bad literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.s then fail "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' ->
      (if c.pos >= String.length c.s then fail "unterminated escape";
       let e = c.s.[c.pos] in
       c.pos <- c.pos + 1;
       match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 't' -> Buffer.add_char b '\t'
       | 'r' -> Buffer.add_char b '\r'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'u' ->
         if c.pos + 4 > String.length c.s then fail "bad \\u escape";
         let code = int_of_string ("0x" ^ String.sub c.s c.pos 4) in
         c.pos <- c.pos + 4;
         (* Our writers only emit \u00xx control escapes; decode the
            BMP code point as UTF-8 for robustness. *)
         if code < 0x80 then Buffer.add_char b (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
         end
       | e -> fail "bad escape \\%C" e);
      loop ()
    | ch ->
      Buffer.add_char b ch;
      loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Num f
  | None -> fail "bad number %S at offset %d" tok start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' ->
    expect c '{';
    skip_ws c;
    if peek c = Some '}' then (expect c '}'; Obj [])
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> expect c ','; members ((key, v) :: acc)
        | Some '}' -> expect c '}'; Obj (List.rev ((key, v) :: acc))
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      members []
    end
  | Some '[' ->
    expect c '[';
    skip_ws c;
    if peek c = Some ']' then (expect c ']'; Arr [])
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> expect c ','; elements (v :: acc)
        | Some ']' -> expect c ']'; Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      elements []
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c
  | None -> fail "unexpected end of input"

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing garbage at offset %d" c.pos;
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* --- typed accessors --------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let mem_exn ~ctx key j =
  match member key j with
  | Some v -> v
  | None -> fail "%s: missing field %S" ctx key

let str ~ctx = function Str s -> s | _ -> fail "%s: expected string" ctx
let num ~ctx = function Num f -> f | _ -> fail "%s: expected number" ctx
(* Exact integers only: a fractional or out-of-range count in a
   baseline is malformed input, not something to truncate. *)
let int_ ~ctx j =
  let f = num ~ctx j in
  let bound = -.Float.of_int min_int (* 2^62, just above max_int *) in
  if Float.is_integer f && f >= -.bound && f < bound then int_of_float f
  else fail "%s: expected an integer, got %g" ctx f
let bool_ ~ctx = function Bool b -> b | _ -> fail "%s: expected bool" ctx
let arr ~ctx = function Arr l -> l | _ -> fail "%s: expected array" ctx
