(* H1 suppression scoping: the audit may sit on the enclosing let
   (either attachment the parser produces — binding or pattern) or on
   the allocating expression itself; every placement must clear it *)
let[@lint.allow "H1 fixture: enclosing-let placement"] joined a b = a @ b

let inline_placed n =
  (Printf.sprintf "entry-%d" n) [@lint.allow "H1 fixture: expression placement"]

let hot_entry x =
  if x < 0 then begin
    let msg [@lint.allow "H1 fixture: attribute parsed onto the binding pattern"] =
      Printf.sprintf "bad input %d" x
    in
    failwith msg
  end;
  x + 1

let leaks a b = a @ b
