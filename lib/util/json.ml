type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float_repr v =
  let s = Printf.sprintf "%g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let option f = function None -> Null | Some x -> f x

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_seq b op cl item items =
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      item x)
    items;
  Buffer.add_char b cl

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
  | String s -> add_escaped b s
  | List items -> add_seq b '[' ']' (add b) items
  | Obj fields ->
      add_seq b '{' '}'
        (fun (k, v) ->
          add_escaped b k;
          Buffer.add_string b ": ";
          add b v)
        fields

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b
