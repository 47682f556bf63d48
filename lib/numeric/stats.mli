(** Streaming sample statistics and confidence intervals.

    The simulation replication driver reports paper-style aggregates
    ("over 10 iterations the overall loss decreases by about 20%") with
    Student-t confidence intervals computed here. *)

type t
(** Mutable accumulator of a univariate sample (Welford's algorithm).
    One accumulator is filled on one domain, in sample order:
    {!Bufsize_sim.Replicate.run} folds its replications in replication
    order on the caller's domain, so its statistics do not depend on
    the domain count. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** [nan] on an empty accumulator. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two observations. *)

val std_dev : t -> float

val std_error : t -> float

val min_value : t -> float

val max_value : t -> float

val of_list : float list -> t

val t_quantile : df:int -> float
(** Two-sided 95% Student-t critical value for [df] degrees of freedom
    (tabulated, interpolated, asymptote 1.96). *)

val confidence_interval95 : t -> float * float
(** [(half_width_low, half_width_high)] bounds as [mean -/+ t * stderr];
    [nan, nan] with fewer than two observations. *)

val batch_means : batch:int -> float list -> t
(** Group a (time-ordered) sample into batches of size [batch] and
    accumulate the batch means — the classic variance-reduction device for
    correlated simulation output.  Trailing partial batches are dropped. *)
