(* P fixture: module-level mutable state touched from parallel-task
   closures. The local [Pool] module suffix-matches the configured
   [Pool.parallel_for] root, so the fixture needs no engine deps. *)

module Pool = struct
  let parallel_for n f =
    for i = 0 to n - 1 do
      f i
    done
end

let hits = ref 0

let table : (int, int) Hashtbl.t = Hashtbl.create 8

let safe = Atomic.make 0

let bump () = incr hits

let run () =
  Pool.parallel_for 4 (fun i ->
      bump ();
      hits := !hits + 1;
      Hashtbl.replace table i i;
      Atomic.incr safe)

let audited () =
  Pool.parallel_for 2 (fun _ ->
      (incr hits) [@lint.allow "P fixture: single-writer by construction"])

let untouched () = incr hits

(* a module-level constant indexing a local array: the index is not the
   mutated state, so nothing here is a P access *)
let last_cell = 3

let indexed () =
  let cells = Array.make 4 0 in
  Pool.parallel_for 4 (fun i -> cells.(last_cell) <- i);
  cells

(* a module-level array whose type is written through an alias: its
   expanded type is the container, so the write is a P access *)
type cells = int array

let shared : cells = Array.make 4 0

let aliased () = Pool.parallel_for 4 (fun i -> shared.(i) <- i)
