(* Results files and BENCHMARK.json are read one line at a time: every
   object the comparator needs sits on a line of its own, with plain
   string and number fields, as bench/compare.ml reads bench/main.ml's
   rows.  The toolchain ships no JSON library. *)

(* A float with all its digits; JSON has no nan or infinity. *)
let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let index_of s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

(* The value of ["key": value] on [line]: the characters of a string
   value (which must hold no escapes), or the text of any other value. *)
let field line key =
  match index_of line (Printf.sprintf "%S:" key) with
  | None -> None
  | Some i ->
    let n = String.length line in
    let i = ref i in
    while !i < n && line.[!i] = ' ' do incr i done;
    if !i < n && line.[!i] = '"' then
      Option.map
        (fun j -> String.sub line (!i + 1) (j - !i - 1))
        (String.index_from_opt line (!i + 1) '"')
    else begin
      let j = ref !i in
      while !j < n && not (String.contains ",}] " line.[!j]) do incr j done;
      Some (String.sub line !i (!j - !i))
    end

let float_field line key = Option.bind (field line key) float_of_string_opt

let lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> String.split_on_char '\n' (really_input_string ic (in_channel_length ic)))
