(** The helper threads' work FIFO: prefetch hints and release batches on
    their way from the run-time layer to its helper threads (section 3.3).

    It behaves exactly as a {!Memhog_sim.Mailbox} of work items would.  An
    item sent while a helper is idle goes straight to the helper that has
    been idle longest; otherwise it joins the tail, and the next helper to
    receive takes the head.  A helper that finds the FIFO empty blocks on
    its slot's {!Memhog_sim.Engine.queue} until an item is handed to it,
    and the wait is charged to its {!Memhog_sim.Account.Sleep} account.

    A waiting item is plain ints, not a boxed message: items wait in an
    {!Memhog_sim.Int_ring} of (vpn, site, kind) records, and a release
    batch's (vpn, site, priority) pages wait in a second ring beside it, in
    order, and idle helpers wait in a ring of slot ids.  A helper receives
    into its own {!slot}, so neither sending nor receiving allocates once
    the rings and the slot have grown.  The queue can run tens of
    thousands of items deep, and boxed items that wait that long are
    promoted to the major heap. *)

type t

type kind =
  | Prefetch
  | Urgent_prefetch  (** a prefetch that rides the disk's demand class *)
  | Release  (** a batch of (vpn, site, priority) pages *)

type slot
(** One helper's receive slot: the item it last received. *)

val create : unit -> t

val slot : t -> slot
(** A fresh receive slot for one helper of [t], registered with it. *)

val send_prefetch : t -> vpn:int -> site:int -> urgent:bool -> unit
(** Never blocks. *)

val send_release : t -> Memhog_sim.Int_ring.t -> unit
(** Post the pages of a width-3 ring of (vpn, site, priority) records as
    one batch, moving them out of it: the ring is left empty.  Never
    blocks.  @raise Invalid_argument if the ring's width is not 3. *)

val recv : t -> slot -> kind
(** Receive the next item into [slot] and return its kind.  Blocks (from
    process context) while the FIFO is empty. *)

val vpn : slot -> int
(** The page of the prefetch last received into the slot. *)

val site : slot -> int
(** The directive site of the prefetch last received into the slot. *)

val batch : slot -> Memhog_sim.Int_ring.t
(** The (vpn, site, priority) pages of the release batch last received into
    the slot.  The receiver may move them out ({!Memhog_vm.Os.release_batch}
    does); the next release received replaces whatever is left. *)
