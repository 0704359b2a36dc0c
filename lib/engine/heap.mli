(** Growable binary min-heap used as the simulator's event queue.

    Elements are ordered by a caller-supplied priority; ties are broken
    by insertion order (FIFO among equal priorities), which makes event
    execution deterministic.

    The implementation is allocation-lean: values and sequence numbers
    are stored in parallel arrays (no per-entry box), and every vacated
    slot is overwritten with the caller-supplied [dummy] value so popped
    payloads are never pinned against the GC. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> compare_priority:('a -> 'a -> int) -> unit -> 'a t
(** [create ~dummy ~compare_priority ()] is an empty heap.
    [compare_priority] must be a total order on priorities. [dummy] is a
    throwaway value used to fill unused and vacated slots; it is never
    returned by {!pop}/{!peek}. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val push_list : 'a t -> 'a list -> unit
(** Bulk insert, FIFO-ordered within the list among equal priorities.
    A bulk load into an empty heap uses O(n) bottom-up heapify. *)

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val top : 'a t -> 'a
(** Like {!peek} but allocation-free: returns [dummy] when empty (check
    {!is_empty} to disambiguate). *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element; FIFO among ties. *)

val remove_top : 'a t -> unit
(** Remove the smallest element without returning it (allocation-free;
    no-op when empty). Pair with {!top}. *)

val filter_in_place : 'a t -> ('a -> bool) -> unit
(** Drop every element for which the predicate is false, then restore
    the heap invariant (O(n)). Relative FIFO order among surviving
    equal-priority elements is preserved. *)

val clear : 'a t -> unit
(** Empty the heap and release the backing arrays (so a long-running
    simulation does not pin dead payloads). *)
