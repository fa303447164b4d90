type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

type state = { src : string; mutable pos : int }

(* Line/column of the failure point, computed only on the error path (the
   happy path never pays for position tracking). Both are 1-based. *)
let position src pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to Stdlib.min pos (String.length src) - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

let fail st msg =
  let line, col = position st.src st.pos in
  raise
    (Error
       (Printf.sprintf "%s at line %d, column %d (offset %d)" msg line col
          st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let parse_string_body st =
  (* Called with pos just past the opening quote. *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  fail st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail st "bad \\u escape"
                in
                st.pos <- st.pos + 4;
                (* Lone surrogates (pairs are out of scope) become U+FFFD. *)
                Buffer.add_utf_8_uchar buf
                  (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
            | _ -> fail st "bad escape");
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let integral = ref true in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+') ->
        advance st;
        go ()
    | Some ('.' | 'e' | 'E') ->
        integral := false;
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  match if !integral then int_of_string_opt s else None with
  | Some i -> Int i
  | None -> (
      (* A fraction, an exponent, or an integer too wide for [int]. *)
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Float f
      | Some _ ->
          st.pos <- start;
          fail st "number out of range"
      | None -> fail st (Printf.sprintf "bad number %S" s))

(* Comma-separated items up to [close], called just past the opener. *)
let sequence st close item =
  skip_ws st;
  if peek st = Some close then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let acc = item st :: acc in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          go acc
      | Some c when c = close ->
          advance st;
          List.rev acc
      | _ -> fail st (Printf.sprintf "expected ',' or '%c'" close)
    in
    go []

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      Obj (sequence st '}' parse_member)
  | Some '[' ->
      advance st;
      List (sequence st ']' parse_value)
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

and parse_member st =
  skip_ws st;
  expect st '"';
  let key = parse_string_body st in
  skip_ws st;
  expect st ':';
  (key, parse_value st)

let parse s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Error msg -> Error msg

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let of_int64 v =
  let i = Int64.to_int v in
  if Int64.equal (Int64.of_int i) v then Int i else String (Int64.to_string v)

let to_int64 = function
  | Int i -> Some (Int64.of_int i)
  | Float f when Float.is_integer f && Float.abs f < 0x1p53 ->
      Some (Int64.of_float f)
  | String s -> Int64.of_string_opt s
  | _ -> None

(* --- Writer ------------------------------------------------------------- *)

let escape buf s =
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

let add_float buf f =
  if Float.is_nan f then Buffer.add_string buf "\"nan\""
  else if f = Float.infinity then Buffer.add_string buf "\"inf\""
  else if f = Float.neg_infinity then Buffer.add_string buf "\"-inf\""
  else
    (* Shortest representation that round-trips, so serialisation is a
       function of the float's bits alone. *)
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string buf
      (if float_of_string s = f then s else Printf.sprintf "%.17g" f)

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 1024 in
  emit buf json;
  Buffer.contents buf
