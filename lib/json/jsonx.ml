(* Minimal JSON for the validate harness (budget files in,
   cbsp-validate/1 leaderboards out) and the benchmark's one-line
   metric records.  The repo's other JSON is write-only (hand-printed
   manifests and reports); budget files must also be PARSED, and the
   toolchain ships no JSON library — so this is the smallest complete
   reader/writer: full escape handling, numbers via
   [float_of_string]/[%.17g] (round-trips every double), no streaming.
   [to_string] emits no newlines, so a document is one line. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- printing ---------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.is_nan f then Buffer.add_string buf "null"
  else if f = Float.infinity then Buffer.add_string buf "1e999"
  else if f = Float.neg_infinity then Buffer.add_string buf "-1e999"
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> add_escaped buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        add buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

type cursor = { data : string; mutable pos : int }

let peek cur =
  if cur.pos < String.length cur.data then Some cur.data.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let continue = ref true in
  while !continue do
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') -> advance cur
    | _ -> continue := false
  done

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> parse_fail "expected %c at offset %d, got %c" c cur.pos got
  | None -> parse_fail "expected %c at offset %d, got end of input" c cur.pos

let parse_hex4 cur =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek cur with
      | Some c when c >= '0' && c <= '9' -> Char.code c - Char.code '0'
      | Some c when c >= 'a' && c <= 'f' -> Char.code c - Char.code 'a' + 10
      | Some c when c >= 'A' && c <= 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> parse_fail "bad \\u escape at offset %d" cur.pos
    in
    advance cur;
    v := (!v * 16) + d
  done;
  !v

(* Encode a code point as UTF-8 (surrogate pairs are not recombined —
   the protocol only round-trips what this library itself printed, which
   never emits them). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> parse_fail "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some '"' -> advance cur; Buffer.add_char buf '"'; loop ()
      | Some '\\' -> advance cur; Buffer.add_char buf '\\'; loop ()
      | Some '/' -> advance cur; Buffer.add_char buf '/'; loop ()
      | Some 'n' -> advance cur; Buffer.add_char buf '\n'; loop ()
      | Some 't' -> advance cur; Buffer.add_char buf '\t'; loop ()
      | Some 'r' -> advance cur; Buffer.add_char buf '\r'; loop ()
      | Some 'b' -> advance cur; Buffer.add_char buf '\b'; loop ()
      | Some 'f' -> advance cur; Buffer.add_char buf '\012'; loop ()
      | Some 'u' ->
        advance cur;
        add_utf8 buf (parse_hex4 cur);
        loop ()
      | _ -> parse_fail "bad escape at offset %d" cur.pos)
    | Some c -> advance cur; Buffer.add_char buf c; loop ()
  in
  loop ();
  Buffer.contents buf

let parse_literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.data
    && String.sub cur.data cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else parse_fail "bad literal at offset %d" cur.pos

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number cur =
  let start = cur.pos in
  while (match peek cur with Some c -> is_num_char c | None -> false) do
    advance cur
  done;
  let s = String.sub cur.data start (cur.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> parse_fail "bad number %S at offset %d" s start

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> parse_fail "unexpected end of input"
  | Some '"' -> Str (parse_string cur)
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin advance cur; Obj [] end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        fields := (k, v) :: !fields;
        skip_ws cur;
        match peek cur with
        | Some ',' -> advance cur; fields_loop ()
        | Some '}' -> advance cur
        | _ -> parse_fail "expected , or } at offset %d" cur.pos
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin advance cur; List [] end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value cur in
        items := v :: !items;
        skip_ws cur;
        match peek cur with
        | Some ',' -> advance cur; items_loop ()
        | Some ']' -> advance cur
        | _ -> parse_fail "expected , or ] at offset %d" cur.pos
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some 'n' -> parse_literal cur "null" Null
  | Some _ -> parse_number cur

let of_string s =
  let cur = { data = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then
    parse_fail "trailing garbage at offset %d" cur.pos;
  v

(* --- accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_num = function Num f -> Some f | _ -> None
