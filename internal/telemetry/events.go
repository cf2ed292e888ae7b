package telemetry

// Event is one structured telemetry record. Implementations are small value
// types; Kind returns a stable snake_case tag used by the JSONL envelope.
type Event interface {
	Kind() string
}

// Event kind tags. These are a wire format: renaming one breaks recorded
// JSONL files, so they are append-only.
const (
	KindRunStarted        = "run_started"
	KindRunFinished       = "run_finished"
	KindChatInitiated     = "chat_initiated"
	KindChatCompleted     = "chat_completed"
	KindChatAborted       = "chat_aborted"
	KindCompressionChosen = "compression_chosen"
	KindTransfer          = "transfer"
	KindAggregation       = "aggregation"
	KindCoresetAbsorbed   = "coreset_absorbed"
	KindCoresetEvicted    = "coreset_evicted"
	KindCoresetRebuilt    = "coreset_rebuilt"
	KindContactOpen       = "contact_open"
	KindContactClose      = "contact_close"
	KindTrainStep         = "train_step"
	KindLossRecorded      = "loss_recorded"
	KindFaultInjected     = "fault_injected"
	KindChatResumed       = "chat_resumed"
	KindPartialSalvage    = "partial_salvage"
	KindChatDecision      = "chat_decision"
)

// Payload labels for Transfer events.
const (
	// PayloadModel marks a (compressed) model parameter payload.
	PayloadModel = "model"
	// PayloadCoreset marks a coreset-frame payload.
	PayloadCoreset = "coreset"
)

// PeerInfra is the pseudo vehicle ID used for infrastructure endpoints
// (the ProxSkip central server, RSU coordinators) in Transfer events.
const PeerInfra = -1

// RunStarted brackets the beginning of one protocol training run.
type RunStarted struct {
	Protocol string `json:"protocol"`
	Lossless bool   `json:"lossless"`
}

// RunFinished brackets the end of one protocol training run.
type RunFinished struct {
	Protocol string `json:"protocol"`
	// Time is the virtual time at which the run stopped (s).
	Time float64 `json:"time"`
	// FinalLoss is the last recorded probe loss.
	FinalLoss float64 `json:"final_loss"`
	// Canceled reports an early stop via context cancellation.
	Canceled bool `json:"canceled,omitempty"`
}

// ChatInitiated records the start of one pairwise exchange session.
type ChatInitiated struct {
	Time float64 `json:"time"`
	A    int     `json:"a"`
	B    int     `json:"b"`
	// Contact is the estimated remaining contact duration (s).
	Contact float64 `json:"contact"`
	// Window is min(T_B, contact), the usable exchange window (s).
	Window float64 `json:"window"`
}

// ChatCompleted records a chat that ran to the end of its exchange sequence
// (some individual transfers within it may still have failed).
type ChatCompleted struct {
	Time float64 `json:"time"`
	A    int     `json:"a"`
	B    int     `json:"b"`
	// Elapsed is the total air time the chat consumed (s).
	Elapsed float64 `json:"elapsed"`
}

// ChatAborted records a chat that decoupled before the model exchange.
type ChatAborted struct {
	Time   float64 `json:"time"`
	A      int     `json:"a"`
	B      int     `json:"b"`
	Reason string  `json:"reason"`
}

// Chat abort reasons.
const (
	AbortCoresetBuild    = "coreset_build"
	AbortCoresetExchange = "coreset_exchange"
)

// CompressionChosen records one direction's model push: the compression
// level ψ it was sent at and the resulting over-the-air payload size. For
// LbChat ψ is Eq. (7)'s choice; for EqualCompression and the gossip
// baselines it is the equal level that fits the window (core.FitWindowPsi).
type CompressionChosen struct {
	Time  float64 `json:"time"`
	From  int     `json:"from"`
	To    int     `json:"to"`
	Psi   float64 `json:"psi"`
	Bytes int     `json:"bytes"`
}

// Transfer records one simulated payload transfer (any protocol, any
// payload, vehicle-to-vehicle or vehicle-to-infrastructure).
type Transfer struct {
	Time float64 `json:"time"`
	From int     `json:"from"`
	To   int     `json:"to"`
	// Payload is PayloadModel or PayloadCoreset.
	Payload string `json:"payload"`
	// BytesRequested is the payload size handed to the radio.
	BytesRequested int `json:"bytes_requested"`
	// BytesDelivered counts bytes that made it across before any abort.
	BytesDelivered int     `json:"bytes_delivered"`
	Completed      bool    `json:"completed"`
	Elapsed        float64 `json:"elapsed"`
	// Truncated names why an incomplete transfer stopped, one of the
	// radio.TruncDeadline, radio.TruncRange and radio.TruncLoss reasons of
	// radio.TransferResult.Truncated; empty when Completed.
	Truncated string `json:"truncated,omitempty"`
}

// Aggregation records one Eq. (8) model merge on the receiving vehicle.
type Aggregation struct {
	Time    float64 `json:"time"`
	Vehicle int     `json:"vehicle"`
	WSelf   float64 `json:"w_self"`
	WPeer   float64 `json:"w_peer"`
}

// CoresetAbsorbed records a peer coreset expanding a vehicle's local
// dataset (§III-D data expansion).
type CoresetAbsorbed struct {
	Time    float64 `json:"time"`
	Vehicle int     `json:"vehicle"`
	// Frames is the number of absorbed coreset frames.
	Frames int `json:"frames"`
}

// CoresetEvicted records frames dropped by the merge-and-reduce step to
// hold the coreset at its budget |C|.
type CoresetEvicted struct {
	Time    float64 `json:"time"`
	Vehicle int     `json:"vehicle"`
	Dropped int     `json:"dropped"`
}

// CoresetRebuilt records a from-scratch Algorithm 1 coreset construction.
type CoresetRebuilt struct {
	Time    float64 `json:"time"`
	Vehicle int     `json:"vehicle"`
	Size    int     `json:"size"`
}

// ContactOpen records two vehicles entering radio range.
type ContactOpen struct {
	Time float64 `json:"time"`
	A    int     `json:"a"`
	B    int     `json:"b"`
}

// ContactClose records two vehicles leaving radio range (or the run ending
// with the window still open).
type ContactClose struct {
	Time float64 `json:"time"`
	A    int     `json:"a"`
	B    int     `json:"b"`
	// Duration is how long the contact window stayed open (s).
	Duration float64 `json:"duration"`
}

// TrainStep records one vehicle's local-SGD work in one engine tick.
type TrainStep struct {
	Time    float64 `json:"time"`
	Vehicle int     `json:"vehicle"`
	// Steps is how many SGD steps came due this tick (usually 1).
	Steps int `json:"steps"`
	// Loss is the minibatch training loss of the last step.
	Loss float64 `json:"loss"`
}

// LossRecorded is one probe-loss curve sample (the Fig. 2 observable).
type LossRecorded struct {
	Time float64 `json:"time"`
	Loss float64 `json:"loss"`
}

// Fault labels for FaultInjected events (see internal/faults and DESIGN.md
// §9 for the fault taxonomy). Like event kinds, they are a wire format and
// append-only.
const (
	// FaultBurstLoss marks a transfer starting inside a burst packet-loss
	// episode layered over the distance-loss table.
	FaultBurstLoss = "burst_loss"
	// FaultWindowTrunc marks a chat whose contact window was cut short.
	FaultWindowTrunc = "window_trunc"
	// FaultChurnDepart / FaultChurnRejoin bracket a vehicle leaving the
	// communication system and coming back with its (now stale) model.
	FaultChurnDepart = "churn_depart"
	FaultChurnRejoin = "churn_rejoin"
	// FaultPayloadCorrupt marks a coreset payload that completed on air but
	// arrived with only a prefix of its frames intact.
	FaultPayloadCorrupt = "payload_corrupt"
)

// NoPeer is the B value of FaultInjected events that concern a single
// vehicle rather than a link (churn faults).
const NoPeer = -1

// FaultInjected records one injected fault from the internal/faults layer.
type FaultInjected struct {
	Time float64 `json:"time"`
	// Fault is one of the Fault* labels.
	Fault string `json:"fault"`
	// A is the affected vehicle; B the peer for link-scoped faults
	// (NoPeer for vehicle-scoped faults such as churn).
	A int `json:"a"`
	B int `json:"b"`
	// Value is the fault-specific magnitude: the truncated window (s) for
	// window_trunc, the absence duration (s) for churn_depart, the number
	// of intact frames for payload_corrupt, the added packet-error rate
	// for burst_loss, 0 otherwise.
	Value float64 `json:"value,omitempty"`
}

// ChatResumed records a re-encountered pair resuming an interrupted
// exchange session from the last completed payload instead of restarting.
type ChatResumed struct {
	Time float64 `json:"time"`
	A    int     `json:"a"`
	B    int     `json:"b"`
	// SavedBytes is the over-the-air volume the resumption avoided
	// re-sending (the completed coreset payloads of the broken session).
	SavedBytes int `json:"saved_bytes"`
	// Age is how long ago the interrupted session broke (s).
	Age float64 `json:"age"`
}

// PartialSalvage records an incompletely received coreset being truncated
// to its intact prefix and still used, with its weight discounted by the
// delivered fraction (DESIGN.md §9 salvage rules).
type PartialSalvage struct {
	Time float64 `json:"time"`
	// Vehicle is the receiver that salvaged the payload; From the sender.
	Vehicle int `json:"vehicle"`
	From    int `json:"from"`
	// Frames of the sender's Total-frame coreset survived.
	Frames int `json:"frames"`
	Total  int `json:"total"`
	// Discount is the weight multiplier applied to the salvaged samples
	// (Frames/Total).
	Discount float64 `json:"discount"`
}

// ChatDecision records what one LbChat chat decided before its model
// exchange (Algorithm 2 lines 10–13): the value assessment, the (ψ, loss)
// samples each side's φ fit was fed, and the compression levels Eq. (7)
// chose. It is emitted once per Eq. (7) solve, before the model pushes its
// ψ > 0 directions emit as CompressionChosen.
type ChatDecision struct {
	Time float64 `json:"time"`
	A    int     `json:"a"`
	B    int     `json:"b"`
	// Contact is the estimated remaining contact duration (s) and Window
	// the exchange window left after the coreset legs (s).
	Contact float64 `json:"contact"`
	Window  float64 `json:"window"`
	// LossAonB is A's model on B's held coreset subset; LossBonA the
	// reverse.
	LossAonB float64 `json:"loss_a_on_b"`
	LossBonA float64 `json:"loss_b_on_a"`
	// PhiPsiA and PhiLossA are A's φ samples: A's model compressed at
	// PhiPsiA[i] scored PhiLossA[i] on A's held coreset subset. PhiPsiB and
	// PhiLossB are B's.
	PhiPsiA  []float64 `json:"phi_psi_a"`
	PhiLossA []float64 `json:"phi_loss_a"`
	PhiPsiB  []float64 `json:"phi_psi_b"`
	PhiLossB []float64 `json:"phi_loss_b"`
	// PsiA is the level A's model is sent at, PsiB B's; 0 sends nothing.
	PsiA float64 `json:"psi_a"`
	PsiB float64 `json:"psi_b"`
	// Objective is the achieved Eq. (7) value; GainA is A's expected gain
	// from receiving B's model and GainB B's from receiving A's.
	Objective float64 `json:"objective"`
	GainA     float64 `json:"gain_a"`
	GainB     float64 `json:"gain_b"`
}

// Kind implementations.
func (RunStarted) Kind() string        { return KindRunStarted }
func (RunFinished) Kind() string       { return KindRunFinished }
func (ChatInitiated) Kind() string     { return KindChatInitiated }
func (ChatCompleted) Kind() string     { return KindChatCompleted }
func (ChatAborted) Kind() string       { return KindChatAborted }
func (CompressionChosen) Kind() string { return KindCompressionChosen }
func (Transfer) Kind() string          { return KindTransfer }
func (Aggregation) Kind() string       { return KindAggregation }
func (CoresetAbsorbed) Kind() string   { return KindCoresetAbsorbed }
func (CoresetEvicted) Kind() string    { return KindCoresetEvicted }
func (CoresetRebuilt) Kind() string    { return KindCoresetRebuilt }
func (ContactOpen) Kind() string       { return KindContactOpen }
func (ContactClose) Kind() string      { return KindContactClose }
func (TrainStep) Kind() string         { return KindTrainStep }
func (LossRecorded) Kind() string      { return KindLossRecorded }
func (FaultInjected) Kind() string     { return KindFaultInjected }
func (ChatResumed) Kind() string       { return KindChatResumed }
func (PartialSalvage) Kind() string    { return KindPartialSalvage }
func (ChatDecision) Kind() string      { return KindChatDecision }
